//! The `eel` command-line tool: the whole reproduction pipeline —
//! generate a workload, inspect it, instrument and schedule it,
//! simulate it, and read profiles back — from a shell.
//!
//! ```text
//! eel list-benchmarks
//! eel machines
//! eel gen 130.li -o li.eelx [--iterations N] [--optimize MACHINE]
//! eel disasm li.eelx
//! eel cfg li.eelx
//! eel instrument li.eelx -o out.eelx [--mode slow|fast|trace]
//!                [--schedule MACHINE] [--scavenge]
//! eel run li.eelx [--machine MACHINE] [--branch-penalty N]
//! eel profile li.eelx [--machine MACHINE] [--mode slow|fast] [--schedule]
//! eel pipeline li.eelx --machine MACHINE [--block R:B]
//! eel explain li.eelx [--machine MACHINE] [--routine R] [--block B]
//!             [--chrome FILE] [--policy POLICY]
//! eel experiment [FLAGS]        (eel_bench::experiment::USAGE)
//! eel trace FILE [--chrome OUT] [--check CAT,...] [--limit N]
//! eel merge --trace FILE... [--out FILE]
//! eel report FILE [--json]
//! eel report --diff OLD NEW [--json]
//! eel report --gc [--keep N]
//! ```
//!
//! All commands are pure functions over their arguments (file I/O
//! aside), so the crate's tests drive them directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;

use eel_bench::cli::{err, machine, policy, Args};
use eel_bench::experiment::{format_csv, format_table, ExperimentRequest, EXPERIMENT};
use eel_bench::report::{gc_run_reports, referenced_run_hashes, results_dir, workspace_root};
use eel_bench::shard::{merge_rows, ShardRows};
use eel_core::{Priority, SchedOptions, Scheduler};
use eel_edit::{Cfg, Edge, EditSession, Executable};
use eel_pipeline::{chrome_trace, render_issue_trace, MachineModel};
use eel_qpt::{EdgeProfileOptions, EdgeProfiler, ProfileOptions, Profiler, TraceOptions, Tracer};
use eel_sim::{run, RunConfig, TimingConfig};
use eel_sparc::Instruction;
use eel_telemetry::json::Json;
use eel_telemetry::{RunReport, TraceFile};
use eel_workloads::{spec95, BuildOptions};

pub use eel_bench::cli::CliError;

/// The usage text printed for `--help` or argument errors.
pub const USAGE: &str = "\
eel — instruction scheduling and executable editing (MICRO 1996 reproduction)

commands:
  list-benchmarks                      the synthetic SPEC95 suite
  machines                             the shipped SADL machine models
  gen <benchmark> -o FILE              generate a workload image
      [--iterations N] [--optimize MACHINE]
  disasm FILE                          disassemble an image
  cfg FILE                             routine/block/edge summary
  instrument FILE -o OUT               add instrumentation
      [--mode slow|fast|trace] [--schedule MACHINE] [--scavenge]
  run FILE [--machine MACHINE]         simulate (cycles, CPI, exit code)
      [--branch-penalty N] [--load-bias N]
  profile FILE [--machine MACHINE]     instrument+run+report block counts
      [--mode slow|fast] [--schedule]
  pipeline FILE --machine MACHINE      per-cycle issue trace of one block
      [--block R:B]
  explain FILE [--machine MACHINE]     per-block stall attribution, before
      [--routine R] [--block B]        and after scheduling; one block (-B)
      [--chrome FILE]                  adds tables, traces, and optionally a
      [--policy POLICY]                chrome://tracing JSON of the schedule;
      [--exact [--exact-budget N]]     --exact also runs the branch-and-bound
                                       oracle and prints each block's
                                       optimality gap (N caps search nodes)
  sadl FILE                            compile and validate a machine
      [--groups]                       description; print its timing tables
  experiment [FLAGS]                   run the paper's table protocol over
                                       the suite, with engine stats appended;
                                       the flags are listed below
  trace FILE [--chrome OUT]            render a recorded trace: timeline plus
      [--check CAT,...] [--limit N]    the per-category self-time profile
                                       (--limit caps timeline lines, default
                                       40); --chrome exports chrome://tracing
                                       JSON; --check exits nonzero unless
                                       every listed category recorded events
                                       and the Chrome export is valid JSON
  merge FILE... [--out FILE]           fold per-shard telemetry run reports
      [--check-counters REF]           (JSON) into one and render it; --out
                                       writes the merged JSON;
                                       --check-counters exits nonzero unless
                                       counters and histogram event counts
                                       match the reference report exactly
  merge --rows FILE... [--csv]         reassemble shard row files into the
                                       full table, byte-identical to the
                                       unsharded rendering
  merge --trace FILE... [--out FILE]   fold per-shard flight-recorder traces
                                       onto one clock-aligned timeline;
                                       --out writes the merged trace JSONL
  report FILE [--json]                 render a run report written by the
                                       engine (or --report above)
  report --diff OLD NEW [--json]       compare two run reports metric by
                                       metric with per-row deltas
  report --gc [--keep N]               delete stale results/RUN_*.json,
                                       keeping the newest N (default 10) and
                                       every run referenced by the repo's
                                       docs or checked-in baselines
";

/// Where a merged shard report disagrees with a reference run:
/// counters must match exactly, histograms must have seen the same
/// number of events per site (their *timings* legitimately differ
/// between runs, so bucket contents are not compared).
fn counter_mismatches(reference: &RunReport, merged: &RunReport) -> Vec<String> {
    let mut out = Vec::new();
    let keys: std::collections::BTreeSet<&String> = reference
        .counters
        .keys()
        .chain(merged.counters.keys())
        .collect();
    for key in keys {
        let a = reference.counters.get(key).copied().unwrap_or(0);
        let b = merged.counters.get(key).copied().unwrap_or(0);
        if a != b {
            out.push(format!("  counter {key}: reference {a}, merged {b}"));
        }
    }
    let sites: std::collections::BTreeSet<&String> = reference
        .histograms
        .keys()
        .chain(merged.histograms.keys())
        .collect();
    for site in sites {
        let a = reference.histograms.get(site).map_or(0, |h| h.count);
        let b = merged.histograms.get(site).map_or(0, |h| h.count);
        if a != b {
            out.push(format!(
                "  histogram {site}: reference saw {a} events, merged {b}"
            ));
        }
    }
    out
}

/// [`USAGE`] followed by the experiment flags it refers to.
fn usage() -> String {
    format!("{USAGE}\n{}", eel_bench::experiment::USAGE)
}

/// Indents every non-empty line of a rendered sub-report two spaces.
fn indent(text: &str) -> String {
    text.lines()
        .map(|l| {
            if l.is_empty() {
                "\n".to_string()
            } else {
                format!("  {l}\n")
            }
        })
        .collect()
}

fn load(path: &str) -> Result<Executable, CliError> {
    let bytes = fs::read(path).map_err(|e| err(format!("{path}: {e}")))?;
    Executable::from_bytes(&bytes).map_err(|e| err(format!("{path}: {e}")))
}

fn save(exe: &Executable, path: &str) -> Result<(), CliError> {
    fs::write(path, exe.to_bytes()).map_err(|e| err(format!("{path}: {e}")))
}

/// Loads and validates a telemetry run report, mapping I/O and schema
/// failures (missing file, corrupt JSON, future version) to user-facing
/// errors instead of panics.
fn load_report(path: &str) -> Result<RunReport, CliError> {
    let text = fs::read_to_string(path).map_err(|e| err(format!("{path}: {e}")))?;
    RunReport::from_json(&text).map_err(|e| err(format!("{path}: {e}")))
}

/// Runs one CLI invocation and returns its stdout text.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message on any failure.
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(err(usage()));
    };
    let mut args = Args::new(rest);
    match cmd.as_str() {
        "--help" | "-h" | "help" => Ok(usage()),
        "list-benchmarks" => {
            args.finish()?;
            let mut out = String::new();
            for b in spec95() {
                out.push_str(&format!(
                    "{:<14} {:?}  target block size {:.1}\n",
                    b.name, b.suite, b.target_block_size
                ));
            }
            Ok(out)
        }
        "machines" => {
            args.finish()?;
            let mut out = String::new();
            for m in MachineModel::shipped() {
                out.push_str(&format!(
                    "{:<12} {}-way, {} MHz, {} units, {} timing groups\n",
                    m.name(),
                    m.issue_width(),
                    m.clock_mhz(),
                    m.desc().units.len(),
                    m.desc().groups.len()
                ));
            }
            Ok(out)
        }
        "gen" => {
            let name = args
                .positional()
                .ok_or_else(|| err("gen needs a benchmark name"))?;
            let out_path = args.value("-o")?.ok_or_else(|| err("gen needs -o FILE"))?;
            let iterations = args.parsed::<u32>("--iterations")?;
            let optimize = args.value("--optimize")?.map(|m| machine(&m)).transpose()?;
            args.finish()?;
            let bench = spec95()
                .into_iter()
                .find(|b| b.name == name)
                .ok_or_else(|| err(format!("unknown benchmark `{name}`")))?;
            let exe = bench.build(&BuildOptions {
                iterations,
                optimize,
            });
            save(&exe, &out_path)?;
            Ok(format!(
                "wrote {out_path}: {} instructions, {} bytes of data+bss\n",
                exe.text_len(),
                exe.data_end() - exe.data_base()
            ))
        }
        "disasm" => {
            let path = args
                .positional()
                .ok_or_else(|| err("disasm needs a file"))?;
            args.finish()?;
            Ok(load(&path)?.disassemble())
        }
        "cfg" => {
            let path = args.positional().ok_or_else(|| err("cfg needs a file"))?;
            args.finish()?;
            let exe = load(&path)?;
            let cfg = Cfg::build(&exe).map_err(|e| err(e.to_string()))?;
            let mut out = String::new();
            for (ri, r) in cfg.routines.iter().enumerate() {
                out.push_str(&format!(
                    "routine {ri} `{}`: {} blocks, {} instructions\n",
                    r.name,
                    r.blocks.len(),
                    r.end - r.start
                ));
                for (bi, b) in r.blocks.iter().enumerate() {
                    let succs: Vec<String> = b
                        .succs
                        .iter()
                        .map(|e| match e {
                            Edge::Fall(t) => format!("fall:{t}"),
                            Edge::Taken(t) => format!("taken:{t}"),
                            Edge::Exit => "exit".into(),
                        })
                        .collect();
                    out.push_str(&format!(
                        "  block {bi}: @{:#x} len {} -> [{}]\n",
                        exe.text_addr(b.start),
                        b.len,
                        succs.join(", ")
                    ));
                }
            }
            out.push_str(&format!(
                "total: {} blocks, mean static size {:.2}\n",
                cfg.block_count(),
                cfg.mean_block_len()
            ));
            Ok(out)
        }
        "instrument" => {
            let path = args
                .positional()
                .ok_or_else(|| err("instrument needs a file"))?;
            let out_path = args
                .value("-o")?
                .ok_or_else(|| err("instrument needs -o FILE"))?;
            let mode = args.value("--mode")?.unwrap_or_else(|| "slow".into());
            let schedule = args.value("--schedule")?.map(|m| machine(&m)).transpose()?;
            let scavenge = args.flag("--scavenge");
            args.finish()?;
            let exe = load(&path)?;
            let mut session = EditSession::new(&exe).map_err(|e| err(e.to_string()))?;
            let what = match mode.as_str() {
                "slow" => {
                    let p = Profiler::instrument(
                        &mut session,
                        ProfileOptions {
                            scavenge,
                            ..ProfileOptions::default()
                        },
                    );
                    format!(
                        "slow profiling: {} counters (+{} skipped), table at {:#x}",
                        p.instrumented_blocks(),
                        p.skipped_blocks(),
                        p.counter_base()
                    )
                }
                "fast" => {
                    let p = EdgeProfiler::instrument(&mut session, EdgeProfileOptions::default());
                    format!(
                        "fast profiling: {} edge counters of {} edges, table at {:#x}",
                        p.instrumented_edges(),
                        p.total_edges(),
                        p.counter_base()
                    )
                }
                "trace" => {
                    let t = Tracer::instrument(&mut session, TraceOptions::default());
                    format!(
                        "address tracing: {} memory operations, ring at {:#x}",
                        t.traced_ops(),
                        t.buffer_base()
                    )
                }
                other => return Err(err(format!("unknown mode `{other}`"))),
            };
            let edited = match &schedule {
                Some(model) => session
                    .emit(Scheduler::new(model.clone()).transform())
                    .map_err(|e| err(e.to_string()))?,
                None => session.emit_unscheduled().map_err(|e| err(e.to_string()))?,
            };
            save(&edited, &out_path)?;
            let sched = schedule
                .map(|m| format!(", scheduled for {}", m.name()))
                .unwrap_or_default();
            Ok(format!(
                "wrote {out_path}: {} -> {} instructions ({what}{sched})\n",
                exe.text_len(),
                edited.text_len()
            ))
        }
        "run" => {
            let path = args.positional().ok_or_else(|| err("run needs a file"))?;
            let machine = args.value("--machine")?.map(|m| machine(&m)).transpose()?;
            let branch_penalty = args.parsed::<u32>("--branch-penalty")?.unwrap_or(0);
            let load_bias = args.parsed::<u32>("--load-bias")?.unwrap_or(0);
            args.finish()?;
            let exe = load(&path)?;
            let model = machine.map(|m| m.with_load_latency_bias(load_bias));
            let cfg = RunConfig {
                timing: model.as_ref().map(|_| TimingConfig {
                    taken_branch_penalty: branch_penalty,
                    ..TimingConfig::default()
                }),
                ..RunConfig::default()
            };
            let result = run(&exe, model.as_ref(), &cfg).map_err(|e| err(e.to_string()))?;
            let mut out = format!(
                "exit code {}\n{} instructions, {} memory ops, {} taken branches\n",
                result.exit_code, result.instructions, result.mem_ops, result.taken_branches
            );
            if let Some(m) = &model {
                out.push_str(&format!(
                    "{} cycles on {} (CPI {:.2}, {:.3} simulated ms)\n",
                    result.cycles,
                    m.name(),
                    result.cpi(),
                    result.seconds(m.clock_mhz()) * 1e3
                ));
            }
            Ok(out)
        }
        "profile" => {
            let path = args
                .positional()
                .ok_or_else(|| err("profile needs a file"))?;
            let model = machine(
                &args
                    .value("--machine")?
                    .unwrap_or_else(|| "ultrasparc".into()),
            )?;
            let mode = args.value("--mode")?.unwrap_or_else(|| "slow".into());
            let schedule = args.flag("--schedule");
            args.finish()?;
            let exe = load(&path)?;
            let mut session = EditSession::new(&exe).map_err(|e| err(e.to_string()))?;

            enum P {
                Slow(Profiler),
                Fast(EdgeProfiler),
            }
            let prof = match mode.as_str() {
                "slow" => P::Slow(Profiler::instrument(
                    &mut session,
                    ProfileOptions::default(),
                )),
                "fast" => P::Fast(EdgeProfiler::instrument(
                    &mut session,
                    EdgeProfileOptions::default(),
                )),
                other => return Err(err(format!("unknown mode `{other}`"))),
            };
            let edited = if schedule {
                session
                    .emit(Scheduler::new(model.clone()).transform())
                    .map_err(|e| err(e.to_string()))?
            } else {
                session.emit_unscheduled().map_err(|e| err(e.to_string()))?
            };
            let result =
                run(&edited, None, &RunConfig::default()).map_err(|e| err(e.to_string()))?;
            let mut mem = result.memory.clone();
            let counts: Vec<((usize, usize), u64)> = match prof {
                P::Slow(p) => {
                    let c = p.profile(|a| mem.read_u32(a).expect("counter readable"));
                    let mut v: Vec<_> = c.into_iter().map(|(k, n)| (k, u64::from(n))).collect();
                    v.sort();
                    v
                }
                P::Fast(p) => {
                    let c = p.profile(|a| mem.read_u32(a).expect("counter readable"));
                    let mut v: Vec<_> = c.block_counts.into_iter().collect();
                    v.sort();
                    v
                }
            };
            let cfg = session.cfg();
            let mut out = String::from("routine:block        address  executions\n");
            for ((r, b), n) in counts {
                let addr = exe.text_addr(cfg.routines[r].blocks[b].start);
                out.push_str(&format!("{r:>3}:{b:<12} {addr:#010x}  {n}\n"));
            }
            Ok(out)
        }
        "pipeline" => {
            let path = args
                .positional()
                .ok_or_else(|| err("pipeline needs a file"))?;
            let model = machine(
                &args
                    .value("--machine")?
                    .ok_or_else(|| err("pipeline needs --machine"))?,
            )?;
            let block = args.value("--block")?.unwrap_or_else(|| "0:0".into());
            args.finish()?;
            let (r, b) = block
                .split_once(':')
                .and_then(|(r, b)| Some((r.parse::<usize>().ok()?, b.parse::<usize>().ok()?)))
                .ok_or_else(|| err("--block expects R:B"))?;
            let exe = load(&path)?;
            let cfg = Cfg::build(&exe).map_err(|e| err(e.to_string()))?;
            let blk = cfg
                .routines
                .get(r)
                .and_then(|rt| rt.blocks.get(b))
                .ok_or_else(|| err(format!("no block {r}:{b}")))?;
            let insns: Vec<Instruction> = exe.text()[blk.start..blk.start + blk.len]
                .iter()
                .map(|&w| Instruction::decode(w))
                .collect();
            Ok(render_issue_trace(&model, &insns))
        }
        "explain" => {
            let path = args
                .positional()
                .ok_or_else(|| err("explain needs a file"))?;
            let model = machine(
                &args
                    .value("--machine")?
                    .unwrap_or_else(|| "ultrasparc".into()),
            )?;
            let routine = args.parsed::<usize>("--routine")?.unwrap_or(0);
            let block = args.parsed::<usize>("--block")?;
            let chrome = args.value("--chrome")?;
            let priority = args
                .value("--policy")?
                .map(|p| policy(&p))
                .transpose()?
                .unwrap_or_default();
            // `--policy exact` already schedules with the oracle, so it
            // implies the gap rendering `--exact` asks for.
            let exact = args.flag("--exact") || priority == Priority::Exact;
            let exact_budget = args.parsed::<u32>("--exact-budget")?;
            args.finish()?;
            if chrome.is_some() && block.is_none() {
                return Err(err("--chrome needs --block B (one block per trace)"));
            }
            if exact_budget.is_some() && !exact {
                return Err(err("--exact-budget needs --exact (or --policy exact)"));
            }
            let exe = load(&path)?;
            let session = EditSession::new(&exe).map_err(|e| err(e.to_string()))?;
            let n_blocks = session
                .cfg()
                .routines
                .get(routine)
                .ok_or_else(|| err(format!("no routine {routine}")))?
                .blocks
                .len();
            let name = session.cfg().routines[routine].name.clone();
            let sched = Scheduler::with_options(
                model.clone(),
                SchedOptions {
                    priority,
                    exact_budget: exact_budget.unwrap_or(eel_core::DEFAULT_EXACT_BUDGET),
                    ..SchedOptions::default()
                },
            );
            let blocks: Vec<usize> = match block {
                Some(b) if b >= n_blocks => return Err(err(format!("no block {routine}:{b}"))),
                Some(b) => vec![b],
                None => (0..n_blocks).collect(),
            };
            let mut out = format!(
                "stall attribution on {} ({priority}), routine {routine} `{name}`\n",
                model.name()
            );
            for b in blocks {
                let blk = &session.cfg().routines[routine].blocks[b];
                let addr = exe.text_addr(blk.start);
                let code = session.block_code(routine, b);
                let before_insns: Vec<Instruction> = code.instructions().collect();
                let oracle = exact.then(|| sched.exact_block(&code));
                let ex = sched.explain_block(code);
                out.push_str(&format!(
                    "block {b} @{addr:#x}: {} instructions\n  before: {:>3} issue cycles, \
                     {:>3} stall cycles  [{}]\n  after:  {:>3} issue cycles, {:>3} stall \
                     cycles  [{}]\n",
                    before_insns.len(),
                    ex.before.issue_latency(),
                    ex.before.stalls,
                    ex.before_profile.summary(&model),
                    ex.after.issue_latency(),
                    ex.after.stalls,
                    ex.after_profile.summary(&model),
                ));
                if let Some(o) = &oracle {
                    let verdict = if o.budget_exhausted {
                        format!(
                            "budget exhausted after {} nodes, list schedule kept",
                            o.nodes
                        )
                    } else {
                        format!("proven optimal in {} nodes", o.nodes)
                    };
                    // Body-only cycles: the oracle never reorders the
                    // control tail, so its baseline is the list
                    // schedule's body latency, not the full-block
                    // timing of the lines above.
                    out.push_str(&format!(
                        "  exact:  body {:>3} -> {:>3} issue cycles, gap {:>3} cycles  \
                         [{verdict}]\n",
                        o.list_latency,
                        o.latency,
                        o.gap(),
                    ));
                }
                if block.is_none() {
                    continue;
                }
                // Single-block mode: full attribution tables and issue
                // traces on both sides of the scheduler.
                let after_insns: Vec<Instruction> = ex.scheduled.instructions().collect();
                out.push_str("\nbefore scheduling:\n");
                out.push_str(&indent(&render_issue_trace(&model, &before_insns)));
                out.push_str(&indent(&ex.before_profile.render(&model)));
                out.push_str("\nafter scheduling:\n");
                out.push_str(&indent(&render_issue_trace(&model, &after_insns)));
                out.push_str(&indent(&ex.after_profile.render(&model)));
                if let Some(chrome_path) = &chrome {
                    fs::write(chrome_path, chrome_trace(&model, &after_insns))
                        .map_err(|e| err(format!("{chrome_path}: {e}")))?;
                    out.push_str(&format!(
                        "\nwrote {chrome_path}: load it in chrome://tracing or \
                         https://ui.perfetto.dev\n"
                    ));
                }
            }
            Ok(out)
        }
        "sadl" => {
            let path = args.positional().ok_or_else(|| err("sadl needs a file"))?;
            let groups = args.flag("--groups");
            args.finish()?;
            let src = fs::read_to_string(&path).map_err(|e| err(format!("{path}: {e}")))?;
            let model = MachineModel::from_source(&src).map_err(|e| err(e.to_string()))?;
            let desc = model.desc();
            let mut out = format!(
                "{}: {}-way issue, {} MHz\nunits:",
                desc.machine, desc.issue_width, desc.clock_mhz
            );
            for u in &desc.units {
                out.push_str(&format!(" {}x{}", u.name, u.count));
            }
            out.push_str(&format!(
                "\n{} timing groups over {} bound mnemonics; every instruction covered\n",
                desc.groups.len(),
                desc.mnemonics().count()
            ));
            if groups {
                let mut names: Vec<&str> = desc.mnemonics().collect();
                names.sort_unstable();
                for name in names {
                    let g = desc.group_for(name).expect("bound");
                    out.push_str(&format!(
                        "  {name:<8} group {:>2}: {} cycles\n",
                        desc.group_id(name).expect("bound"),
                        g.cycles
                    ));
                }
            }
            Ok(out)
        }
        "experiment" => Ok(ExperimentRequest::parse(&EXPERIMENT, args)?.run()?.render()),
        "trace" => {
            let path = args.positional().ok_or_else(|| err("trace needs a file"))?;
            let chrome = args.value("--chrome")?;
            let check = args.value("--check")?;
            let limit = args.parsed::<usize>("--limit")?.unwrap_or(40);
            args.finish()?;
            let text = fs::read_to_string(&path).map_err(|e| err(format!("{path}: {e}")))?;
            let trace = TraceFile::parse(&text).map_err(|e| err(format!("{path}: {e}")))?;
            let mut out = trace.render(limit);
            if let Some(cats) = &check {
                for cat in cats.split(',').filter(|c| !c.is_empty()) {
                    let n = trace.events.iter().filter(|e| e.cat == cat).count();
                    if n == 0 {
                        return Err(err(format!("category `{cat}` recorded no events")));
                    }
                    out.push_str(&format!("check {cat}: {n} events\n"));
                }
                // The Chrome export must itself be well-formed JSON
                // with a non-empty event list (the CI smoke gate).
                let exported = trace.to_chrome();
                let parsed = Json::parse(&exported)
                    .map_err(|e| err(format!("chrome export is not valid JSON: {e}")))?;
                let n = match parsed.get("traceEvents") {
                    Some(Json::Arr(events)) => events.len(),
                    _ => 0,
                };
                if n == 0 {
                    return Err(err("chrome export has no traceEvents"));
                }
                out.push_str(&format!("check chrome: {n} trace events\n"));
            }
            if let Some(p) = &chrome {
                fs::write(p, trace.to_chrome()).map_err(|e| err(format!("{p}: {e}")))?;
                out.push_str(&format!(
                    "wrote {p}: load it in chrome://tracing or https://ui.perfetto.dev\n"
                ));
            }
            Ok(out)
        }
        "merge" => {
            let rows_mode = args.flag("--rows");
            let trace_mode = args.flag("--trace");
            let csv = args.flag("--csv");
            let out_path = args.value("--out")?;
            let check = args.value("--check-counters")?;
            let mut paths = Vec::new();
            while let Some(p) = args.positional() {
                paths.push(p);
            }
            args.finish()?;
            if paths.is_empty() {
                return Err(err("merge needs at least one shard file"));
            }
            if trace_mode {
                let files = paths
                    .iter()
                    .map(|p| {
                        let text = fs::read_to_string(p).map_err(|e| err(format!("{p}: {e}")))?;
                        TraceFile::parse(&text).map_err(|e| err(format!("{p}: {e}")))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let merged = TraceFile::merge(&files);
                let mut out = String::new();
                if let Some(p) = &out_path {
                    fs::write(p, merged.to_jsonl()).map_err(|e| err(format!("{p}: {e}")))?;
                    out.push_str(&format!("wrote merged trace {p}\n"));
                }
                out.push_str(&merged.render(40));
                return Ok(out);
            }
            if rows_mode {
                let parts = paths
                    .iter()
                    .map(|p| {
                        let text = fs::read_to_string(p).map_err(|e| err(format!("{p}: {e}")))?;
                        ShardRows::parse(&text).map_err(|e| err(format!("{p}: {e}")))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let (meta, rows) = merge_rows(&parts).map_err(|e| err(e.to_string()))?;
                let model = machine(&meta.machine)?;
                return Ok(if csv {
                    format_csv(&rows)
                } else {
                    format_table(&meta.title, &model, &rows, meta.show_resched)
                });
            }
            let reports = paths
                .iter()
                .map(|p| load_report(p))
                .collect::<Result<Vec<_>, _>>()?;
            let mut merged = reports[0].clone();
            for r in &reports[1..] {
                merged.merge(r);
            }
            let mut out = String::new();
            if let Some(ref_path) = &check {
                let reference = load_report(ref_path)?;
                let mismatches = counter_mismatches(&reference, &merged);
                if !mismatches.is_empty() {
                    return Err(err(format!(
                        "merged report disagrees with {ref_path}:\n{}",
                        mismatches.join("\n")
                    )));
                }
                out.push_str(&format!(
                    "counters and histogram event counts match {ref_path}\n"
                ));
            }
            if let Some(p) = &out_path {
                fs::write(p, merged.to_json()).map_err(|e| err(format!("{p}: {e}")))?;
                out.push_str(&format!("wrote merged report {p}\n"));
            }
            out.push_str(&merged.render());
            Ok(out)
        }
        "report" => {
            let json = args.flag("--json");
            if args.flag("--gc") {
                let keep = args.parsed::<usize>("--keep")?.unwrap_or(10);
                args.finish()?;
                let referenced = referenced_run_hashes(&workspace_root());
                let (kept, deleted) = gc_run_reports(&results_dir(), keep, &referenced)
                    .map_err(|e| err(format!("gc failed: {e}")))?;
                let mut out = format!(
                    "kept {kept} run reports ({} referenced by docs/baselines, newest {keep} retained), deleted {}\n",
                    referenced.len(),
                    deleted.len()
                );
                for p in &deleted {
                    if let Some(name) = p.file_name().and_then(|n| n.to_str()) {
                        out.push_str(&format!("  deleted {name}\n"));
                    }
                }
                return Ok(out);
            }
            if args.flag("--diff") {
                let old_path = args
                    .positional()
                    .ok_or_else(|| err("report --diff needs OLD NEW"))?;
                let new_path = args
                    .positional()
                    .ok_or_else(|| err("report --diff needs OLD NEW"))?;
                args.finish()?;
                let old = load_report(&old_path)?;
                let new = load_report(&new_path)?;
                let diff = old.diff(&new);
                if json {
                    return Ok(diff.to_json());
                }
                let mut out = diff.render(false);
                if diff.all_zero() {
                    out.push_str("reports are identical\n");
                }
                Ok(out)
            } else {
                let path = args
                    .positional()
                    .ok_or_else(|| err("report needs a file"))?;
                args.finish()?;
                let report = load_report(&path)?;
                if json {
                    Ok(report.to_json())
                } else {
                    Ok(report.render())
                }
            }
        }
        other => Err(err(format!("unknown command `{other}`\n\n{}", usage()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_bench::shard::ShardSpec;
    use eel_workloads::load_corpus;

    fn call(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        dispatch(&v)
    }

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("eel-cli-test-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn help_lists_commands() {
        let out = call(&["help"]).unwrap();
        assert!(out.contains("instrument"));
        assert!(out.contains("profile"));
    }

    #[test]
    fn list_benchmarks_and_machines() {
        let out = call(&["list-benchmarks"]).unwrap();
        assert!(out.contains("130.li"));
        assert_eq!(out.lines().count(), 18);
        let out = call(&["machines"]).unwrap();
        assert!(out.contains("UltraSPARC"));
        assert!(out.contains("4-way"));
        assert!(out.contains("VLIW"), "{out}");
        assert!(out.contains("6-way"), "{out}");
        assert!(out.contains("DeepSPARC"), "{out}");
        assert_eq!(out.lines().count(), 6);
    }

    #[test]
    fn new_machines_run_and_schedule() {
        let f = tmp("li-new-machines.eelx");
        call(&["gen", "130.li", "-o", &f, "--iterations", "2"]).unwrap();
        let r = call(&["run", &f, "--machine", "vliw"]).unwrap();
        assert!(r.contains("cycles on VLIW"), "{r}");
        let r = call(&["run", &f, "--machine", "deepsparc"]).unwrap();
        assert!(r.contains("cycles on DeepSPARC"), "{r}");
        let e = call(&["run", &f, "--machine", "z80"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("deepsparc"), "error lists the machines: {e}");
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn explain_accepts_every_policy() {
        let f = tmp("li-policy.eelx");
        call(&["gen", "130.li", "-o", &f, "--iterations", "2"]).unwrap();
        for policy in ["stalls-first", "chain-first", "load-delay", "lookahead:2"] {
            let out = call(&["explain", &f, "--policy", policy]).unwrap();
            assert!(out.contains(&format!("({policy})")), "{policy}: {out}");
            assert!(out.contains("after:"), "{policy}: {out}");
        }
        let e = call(&["explain", &f, "--policy", "random"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("unknown policy"), "{e}");
        assert!(e.contains("exact"), "error lists the oracle too: {e}");
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn explain_exact_renders_the_gap() {
        let f = tmp("li-exact.eelx");
        call(&["gen", "130.li", "-o", &f, "--iterations", "2"]).unwrap();
        // `--exact` adds an oracle line with each block's optimality
        // gap; small benchmark blocks are well inside the budget.
        let out = call(&["explain", &f, "--exact"]).unwrap();
        assert!(out.contains("exact:"), "{out}");
        assert!(out.contains("gap"), "{out}");
        assert!(out.contains("proven optimal"), "{out}");
        // `--policy exact` schedules with the oracle and implies the
        // gap rendering.
        let out = call(&["explain", &f, "--policy", "exact"]).unwrap();
        assert!(out.contains("(exact)"), "{out}");
        assert!(out.contains("exact:"), "{out}");
        // A starved search still exits cleanly: it reports the cut and
        // keeps the list schedule, so no gap is ever won. (130.li's
        // blocks are small enough that the root bound proves them all
        // without searching, so the starvation needs a denser FP
        // benchmark.)
        let g = tmp("hydro2d-exact.eelx");
        call(&["gen", "104.hydro2d", "-o", &g, "--iterations", "2"]).unwrap();
        let out = call(&["explain", &g, "--exact", "--exact-budget", "1"]).unwrap();
        assert!(out.contains("budget exhausted"), "{out}");
        assert!(out.contains("list schedule kept"), "{out}");
        assert!(
            !out.contains("gap   1"),
            "starved oracle can't win cycles: {out}"
        );
        let e = call(&["explain", &f, "--exact-budget", "9"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("--exact"), "{e}");
        std::fs::remove_file(&f).ok();
        std::fs::remove_file(&g).ok();
    }

    #[test]
    fn gen_disasm_cfg_run_roundtrip() {
        let f = tmp("li.eelx");
        let out = call(&["gen", "130.li", "-o", &f, "--iterations", "3"]).unwrap();
        assert!(out.contains("wrote"));
        let d = call(&["disasm", &f]).unwrap();
        assert!(d.starts_with("main:"));
        let c = call(&["cfg", &f]).unwrap();
        assert!(c.contains("routine 0 `main`"));
        let r = call(&["run", &f, "--machine", "ultrasparc"]).unwrap();
        assert!(r.contains("cycles on UltraSPARC"), "{r}");
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn instrument_modes_and_schedule() {
        let f = tmp("go.eelx");
        let g = tmp("go-inst.eelx");
        call(&["gen", "099.go", "-o", &f, "--iterations", "2"]).unwrap();
        for mode in ["slow", "fast", "trace"] {
            let out = call(&[
                "instrument",
                &f,
                "-o",
                &g,
                "--mode",
                mode,
                "--schedule",
                "ultrasparc",
            ])
            .unwrap();
            assert!(out.contains("scheduled for UltraSPARC"), "{mode}: {out}");
            let r = call(&["run", &g]).unwrap();
            assert!(r.contains("exit code"), "{mode}");
        }
        std::fs::remove_file(&f).ok();
        std::fs::remove_file(&g).ok();
    }

    #[test]
    fn profile_reports_counts() {
        let f = tmp("compress.eelx");
        call(&["gen", "129.compress", "-o", &f, "--iterations", "2"]).unwrap();
        for mode in ["slow", "fast"] {
            let out = call(&["profile", &f, "--mode", mode]).unwrap();
            assert!(out.contains("executions"), "{mode}: {out}");
            assert!(out.lines().count() > 50, "{mode}");
        }
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn pipeline_traces_a_block() {
        let f = tmp("ijpeg.eelx");
        call(&["gen", "132.ijpeg", "-o", &f, "--iterations", "2"]).unwrap();
        let out = call(&["pipeline", &f, "--machine", "supersparc", "--block", "0:1"]).unwrap();
        assert!(out.contains("cycle"), "{out}");
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn explain_attributes_block_stalls() {
        let f = tmp("li-explain.eelx");
        call(&["gen", "130.li", "-o", &f, "--iterations", "2"]).unwrap();
        let out = call(&["explain", &f]).unwrap();
        assert!(out.contains("stall attribution on UltraSPARC"), "{out}");
        assert!(out.contains("before:"), "{out}");
        assert!(out.contains("after:"), "{out}");

        // Single-block mode adds tables, traces, and a Chrome trace.
        let j = tmp("explain.json");
        let out = call(&[
            "explain",
            &f,
            "--machine",
            "supersparc",
            "--block",
            "0",
            "--chrome",
            &j,
        ])
        .unwrap();
        assert!(out.contains("before scheduling:"), "{out}");
        assert!(out.contains("after scheduling:"), "{out}");
        assert!(out.contains("cycle"), "{out}");
        let json = std::fs::read_to_string(&j).unwrap();
        assert!(json.contains("\"traceEvents\""), "{json}");

        // --chrome is one block per trace.
        let e = call(&["explain", &f, "--chrome", &j])
            .unwrap_err()
            .to_string();
        assert!(e.contains("--block"), "{e}");
        let e = call(&["explain", &f, "--routine", "99"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("no routine"), "{e}");
        std::fs::remove_file(&f).ok();
        std::fs::remove_file(&j).ok();
    }

    #[test]
    fn sadl_command_validates_descriptions() {
        let f = tmp("machine.sadl");
        std::fs::write(&f, eel_sadl::descriptions::HYPERSPARC).unwrap();
        let out = call(&["sadl", &f]).unwrap();
        assert!(out.contains("hyperSPARC: 2-way issue"), "{out}");
        assert!(out.contains("every instruction covered"));
        let out = call(&["sadl", &f, "--groups"]).unwrap();
        assert!(out.contains("add"), "{out}");
        // A broken description reports the error, not a panic.
        std::fs::write(&f, "machine broken 1 1\nsem add is AR Bogus, D 1").unwrap();
        let e = call(&["sadl", &f]).unwrap_err().to_string();
        assert!(e.contains("undeclared unit"), "{e}");
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn experiment_runs_one_benchmark_with_stats() {
        let out = call(&[
            "experiment",
            "--benchmark",
            "130.li",
            "--iterations",
            "40",
            "--jobs",
            "2",
            "--no-cache",
        ])
        .unwrap();
        assert!(out.contains("130.li"), "{out}");
        assert!(out.contains("engine: 3 simulator invocations"), "{out}");
        let csv = call(&[
            "experiment",
            "--benchmark",
            "130.li",
            "--iterations",
            "40",
            "--no-cache",
            "--csv",
        ])
        .unwrap();
        assert!(csv.starts_with("benchmark,suite,"), "{csv}");
    }

    #[test]
    fn experiment_policy_flag_changes_the_title_not_the_protocol() {
        let out = call(&[
            "experiment",
            "--benchmark",
            "130.li",
            "--iterations",
            "40",
            "--jobs",
            "2",
            "--no-cache",
            "--policy",
            "chain-first",
        ])
        .unwrap();
        assert!(out.contains("chain-first policy"), "{out}");
        assert!(out.contains("130.li"), "{out}");
        assert!(out.contains("engine: 3 simulator invocations"), "{out}");
        // The default policy keeps the published title untouched.
        let out = call(&[
            "experiment",
            "--benchmark",
            "130.li",
            "--iterations",
            "40",
            "--jobs",
            "2",
            "--no-cache",
            "--policy",
            "stalls-first",
        ])
        .unwrap();
        assert!(!out.contains("policy"), "{out}");
        let e = call(&["experiment", "--policy", "bogus"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("unknown policy"), "{e}");
    }

    #[test]
    fn experiment_exact_policy_runs_the_oracle() {
        // A tiny node budget keeps the oracle cheap: most blocks fall
        // back to the list incumbent, but the protocol and table shape
        // are identical to every other policy.
        let out = call(&[
            "experiment",
            "--benchmark",
            "130.li",
            "--iterations",
            "40",
            "--jobs",
            "2",
            "--no-cache",
            "--policy",
            "exact",
            "--exact-budget",
            "256",
        ])
        .unwrap();
        assert!(out.contains("exact policy"), "{out}");
        assert!(out.contains("130.li"), "{out}");
        let e = call(&["experiment", "--exact-budget", "256"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("--policy exact"), "{e}");
    }

    #[test]
    fn experiment_shard_errors_are_typed() {
        // Malformed specs must fail before any engine work, with a
        // message naming the problem (the binaries turn these into
        // nonzero exits).
        let e = call(&["experiment", "--shard", "0/4"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("1-indexed"), "{e}");
        let e = call(&["experiment", "--shard", "5/4"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("out of range"), "{e}");
        let e = call(&["experiment", "--shard", "a/b"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("not of the form i/n"), "{e}");
        let e = call(&["experiment", "--shard", "3"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("not of the form i/n"), "{e}");
        let e = call(&["experiment", "--shard", "1/0"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("at least 1"), "{e}");
        let e = call(&["experiment", "--corpus", "bogus-corpus"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("neither a built-in corpus"), "{e}");
    }

    #[test]
    fn sharded_experiment_merges_byte_identical() {
        // A 2-shard split over a small generated corpus, merged in
        // reversed order, must reproduce the unsharded table and the
        // unsharded telemetry counters exactly.
        let manifest = tmp("shard-corpus.txt");
        std::fs::write(&manifest, "# eel-corpus-v1\ngen small 4 7\n").unwrap();
        let ref_report = tmp("shard-ref.json");
        let base = &[
            "experiment",
            "--corpus",
            &manifest,
            "--no-cache",
            "--jobs",
            "1",
        ];
        let full_out = call(&[base.as_slice(), &["--report", &ref_report]].concat()).unwrap();
        let (r1, r2) = (tmp("shard-r1.txt"), tmp("shard-r2.txt"));
        let (p1, p2) = (tmp("shard-p1.json"), tmp("shard-p2.json"));
        for (spec, rows, rep) in [("1/2", &r1, &p1), ("2/2", &r2, &p2)] {
            call(
                &[
                    base.as_slice(),
                    &["--shard", spec, "--rows", rows, "--report", rep],
                ]
                .concat(),
            )
            .unwrap();
        }
        // Rows: merged table (shards in reversed order) is a byte
        // prefix of the unsharded output (which appends stats).
        let merged = call(&["merge", "--rows", &r2, &r1]).unwrap();
        assert!(
            full_out.starts_with(&merged),
            "merged table diverges from the unsharded one:\n--- merged\n{merged}\n--- full\n{full_out}"
        );
        // Reports: counters and histogram event counts match the
        // unsharded reference.
        let merged_json = tmp("shard-merged.json");
        let out = call(&[
            "merge",
            &p2,
            &p1,
            "--check-counters",
            &ref_report,
            "--out",
            &merged_json,
        ])
        .unwrap();
        assert!(out.contains("match"), "{out}");
        assert!(out.contains("counters:"), "{out}");
        // A deliberately wrong merge (a non-empty shard counted
        // twice) is rejected with a nonzero exit.
        let corpus = load_corpus(&manifest).unwrap();
        let s1: ShardSpec = "1/2".parse().unwrap();
        let dup = if s1.filter(&corpus).is_empty() {
            &p2
        } else {
            &p1
        };
        let e = call(&["merge", &p1, &p2, dup, "--check-counters", &ref_report])
            .unwrap_err()
            .to_string();
        assert!(e.contains("disagrees"), "{e}");
        for f in [&manifest, &ref_report, &r1, &r2, &p1, &p2, &merged_json] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn table1_preset_matches_experiment_apart_from_the_title() {
        // The table binaries and `eel experiment` are one flow under
        // two presets: on the same corpus, Table 1's preset and
        // `--machine ultrasparc` give the same rows and the same shard
        // row files; only the title differs.
        let manifest = tmp("preset-corpus.txt");
        std::fs::write(&manifest, "# eel-corpus-v1\ngen small 2 7\n").unwrap();
        let (table_rows, experiment_rows) = (tmp("preset-table1.rows"), tmp("preset-exp.rows"));
        let flags = |rows: &str| {
            [
                "--corpus",
                &manifest,
                "--no-cache",
                "--jobs",
                "1",
                "--rows",
                rows,
            ]
            .map(String::from)
        };
        let request = ExperimentRequest::parse(
            &eel_bench::experiment::TABLE1,
            Args::new(flags(&table_rows)),
        )
        .unwrap();
        assert!(!request.publishes, "a manifest corpus is a partial run");
        let table1 = request.run().unwrap();
        let argv = [
            &["experiment", "--machine", "ultrasparc"].map(String::from)[..],
            &flags(&experiment_rows),
        ]
        .concat();
        let experiment = dispatch(&argv).unwrap();

        let (table1_title, table1_body) = table1.table.split_once('\n').unwrap();
        let (experiment_title, experiment_rest) = experiment.split_once('\n').unwrap();
        assert!(
            experiment_rest.starts_with(table1_body),
            "rows differ:\n--- table1\n{}\n--- experiment\n{experiment}",
            table1.table
        );
        assert!(table1_title.starts_with("Table 1: "), "{table1_title}");
        assert!(
            !experiment_title.starts_with("Table 1: "),
            "{experiment_title}"
        );
        let without_title = |path: &str| {
            let text = std::fs::read_to_string(path).unwrap();
            text.lines()
                .filter(|l| !l.starts_with("title "))
                .map(|l| format!("{l}\n"))
                .collect::<String>()
        };
        let rows = without_title(&table_rows);
        assert_eq!(rows, without_title(&experiment_rows));
        assert_eq!(rows.lines().filter(|l| l.starts_with("row ")).count(), 2);
        for f in [&manifest, &table_rows, &experiment_rows] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn merge_rows_rejects_incomplete_and_inconsistent_sets() {
        // Handcrafted shard row files keep this deterministic.
        let one = f64::to_bits(1.0);
        let head = "# eel-shard-rows v1\ntitle T\nmachine ultrasparc\nresched 0\ncorpus 2\n";
        let r1 = tmp("merge-r1.txt");
        std::fs::write(
            &r1,
            format!("{head}shard 1/2\nrow 0 a CINT95 {one:016x} 1 {one:016x} 1 1\n"),
        )
        .unwrap();
        let e = call(&["merge", "--rows", &r1]).unwrap_err().to_string();
        assert!(e.contains("missing indices"), "{e}");
        let e = call(&["merge", "--rows", &r1, &r1])
            .unwrap_err()
            .to_string();
        assert!(e.contains("more than one shard"), "{e}");
        let e = call(&["merge"]).unwrap_err().to_string();
        assert!(e.contains("at least one shard file"), "{e}");
        let r2 = tmp("merge-r2.txt");
        std::fs::write(
            &r2,
            format!("{head}shard 2/2\nrow 1 b CINT95 {one:016x} 1 {one:016x} 1 1\n"),
        )
        .unwrap();
        let merged = call(&["merge", "--rows", &r1, &r2]).unwrap();
        assert!(merged.starts_with("T\n"), "{merged}");
        assert!(merged.contains("\na "), "{merged}");
        assert!(merged.contains("\nb "), "{merged}");
        std::fs::remove_file(&r1).ok();
        std::fs::remove_file(&r2).ok();
    }

    #[test]
    fn experiment_trace_records_renders_and_checks() {
        let t = tmp("trace-run.jsonl");
        let out = call(&[
            "experiment",
            "--benchmark",
            "130.li",
            "--iterations",
            "40",
            "--jobs",
            "2",
            "--no-cache",
            "--trace-out",
            &t,
        ])
        .unwrap();
        assert!(out.contains("wrote trace"), "{out}");
        let rendered = call(&["trace", &t]).unwrap();
        assert!(rendered.starts_with("trace:"), "{rendered}");
        assert!(rendered.contains("timeline"), "{rendered}");
        assert!(rendered.contains("self time by category"), "{rendered}");
        assert!(rendered.contains("engine"), "{rendered}");
        // Every instrumented layer recorded: engine stages, cell
        // decisions, scheduler passes, simulator runs.
        let checked = call(&["trace", &t, "--check", "engine,cell,sched,sim"]).unwrap();
        assert!(checked.contains("check engine:"), "{checked}");
        assert!(checked.contains("check chrome:"), "{checked}");
        // --no-cache means no lock events; --check makes that loud.
        let e = call(&["trace", &t, "--check", "lock"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("`lock` recorded no events"), "{e}");
        // The Chrome export parses and carries the trace events.
        let j = tmp("trace-run-chrome.json");
        let out = call(&["trace", &t, "--chrome", &j]).unwrap();
        assert!(out.contains("perfetto"), "{out}");
        let chrome = std::fs::read_to_string(&j).unwrap();
        let parsed = Json::parse(&chrome).expect("valid chrome JSON");
        match parsed.get("traceEvents") {
            Some(Json::Arr(events)) => assert!(!events.is_empty()),
            other => panic!("no traceEvents: {other:?}"),
        }
        assert!(chrome.contains("engine/baseline"), "{chrome}");
        std::fs::remove_file(&t).ok();
        std::fs::remove_file(&j).ok();
    }

    #[test]
    fn four_shard_traces_merge_into_one_timeline() {
        // The acceptance scenario: four shards of one corpus, each
        // recording its own flight trace, folded by `merge --trace`
        // into a single timeline. The fold must align clocks, keep
        // per-thread event order (ts ties broken by file then seq),
        // and remember every source.
        let manifest = tmp("trace-shard-corpus.txt");
        std::fs::write(&manifest, "# eel-corpus-v1\ngen small 4 7\n").unwrap();
        let traces: Vec<String> = (1..=4)
            .map(|i| tmp(&format!("trace-shard-{i}.jsonl")))
            .collect();
        for (i, t) in traces.iter().enumerate() {
            call(&[
                "experiment",
                "--corpus",
                &manifest,
                "--no-cache",
                "--jobs",
                "1",
                "--shard",
                &format!("{}/4", i + 1),
                "--trace-out",
                t,
            ])
            .unwrap();
        }
        let merged_path = tmp("trace-merged.jsonl");
        let argv: Vec<&str> = ["merge", "--trace"]
            .into_iter()
            .chain(traces.iter().map(String::as_str))
            .chain(["--out", &merged_path])
            .collect();
        let out = call(&argv).unwrap();
        assert!(out.contains("wrote merged trace"), "{out}");
        assert!(out.contains("self time by category"), "{out}");
        let merged = TraceFile::parse(&std::fs::read_to_string(&merged_path).unwrap()).unwrap();
        assert_eq!(merged.meta["sources"], "4");
        assert_eq!(merged.meta["shard"], "1/4+2/4+3/4+4/4");
        // One consistent timeline: dense global sequence numbers, and
        // per-thread timestamps monotone (each source thread maps to
        // its own merged tid, so per-thread program order survives).
        let mut last_ts: std::collections::BTreeMap<u64, u64> = Default::default();
        for (i, e) in merged.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "dense reassigned seq");
            let prev = last_ts.entry(e.tid).or_insert(0);
            assert!(*prev <= e.ts_ns, "thread {} goes backwards", e.tid);
            *prev = e.ts_ns;
        }
        // All four shards' engine work and ownership decisions landed:
        // each shard owns 1 of the 4 corpus entries and skips 3.
        let shard_events = |name: &str| {
            merged
                .events
                .iter()
                .filter(|e| e.cat == "shard" && e.name == name)
                .count()
        };
        assert_eq!(shard_events("own"), 4);
        assert_eq!(shard_events("skip"), 12);
        assert!(merged.events.iter().any(|e| e.cat == "engine"));
        assert!(merged.events.iter().any(|e| e.cat == "sim"));
        std::fs::remove_file(&manifest).ok();
        std::fs::remove_file(&merged_path).ok();
        for t in &traces {
            std::fs::remove_file(t).ok();
        }
    }

    #[test]
    fn report_gc_flag_validates_arguments() {
        let e = call(&["report", "--gc", "--keep", "zebra"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("bad --keep"), "{e}");
        let e = call(&["report", "--gc", "extra"]).unwrap_err().to_string();
        assert!(e.contains("unexpected argument"), "{e}");
    }

    #[test]
    fn report_renders_and_diffs() {
        let p = tmp("report.json");
        call(&[
            "experiment",
            "--benchmark",
            "130.li",
            "--iterations",
            "40",
            "--jobs",
            "1",
            "--no-cache",
            "--report",
            &p,
        ])
        .unwrap();
        let out = call(&["report", &p]).unwrap();
        assert!(out.contains("counters:"), "{out}");
        assert!(out.contains("sim.instructions"), "{out}");
        assert!(out.contains("sched.blocks"), "{out}");
        let json = call(&["report", &p, "--json"]).unwrap();
        assert!(json.contains("\"schema\": \"eel-run-report\""), "{json}");
        // A report diffed against itself has only zero deltas.
        let diff = call(&["report", "--diff", &p, &p]).unwrap();
        assert!(diff.contains("reports are identical"), "{diff}");
        assert!(!diff.contains("one-sided"), "{diff}");
        let dj = call(&["report", "--diff", &p, &p, "--json"]).unwrap();
        assert!(dj.contains("\"eel-report-diff\""), "{dj}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn report_errors_are_typed_not_panics() {
        let e = call(&["report", "/nonexistent-report.json"])
            .unwrap_err()
            .to_string();
        assert!(e.contains("nonexistent-report"), "{e}");

        let p = tmp("bad-report.json");
        std::fs::write(&p, "{ not json").unwrap();
        let e = call(&["report", &p]).unwrap_err().to_string();
        assert!(e.contains("invalid JSON"), "{e}");

        std::fs::write(&p, "{\"schema\": \"something-else\", \"version\": 1}").unwrap();
        let e = call(&["report", &p]).unwrap_err().to_string();
        assert!(e.contains("not a run report"), "{e}");

        std::fs::write(&p, "{\"schema\": \"eel-run-report\", \"version\": 99}").unwrap();
        let e = call(&["report", &p]).unwrap_err().to_string();
        assert!(e.contains("unsupported run report version 99"), "{e}");

        let e = call(&["report", "--diff", &p]).unwrap_err().to_string();
        assert!(e.contains("OLD NEW"), "{e}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn errors_are_user_facing() {
        assert!(call(&["frobnicate"])
            .unwrap_err()
            .to_string()
            .contains("unknown command"));
        assert!(call(&["gen", "nope", "-o", "x"])
            .unwrap_err()
            .to_string()
            .contains("unknown benchmark"));
        assert!(call(&["run", "/nonexistent.eelx"])
            .unwrap_err()
            .to_string()
            .contains("nonexistent"));
        assert!(call(&["gen", "130.li"])
            .unwrap_err()
            .to_string()
            .contains("-o"));
        assert!(call(&["instrument", "x", "-o", "y", "--mode", "weird"])
            .unwrap_err()
            .to_string()
            .contains("x"));
    }
}
