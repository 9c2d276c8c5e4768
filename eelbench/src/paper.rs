//! `paper-tables`: the user-facing reproduction. Tables 1–3 and the
//! summary on the `spec95` suite, each through a fresh `Engine` shared
//! by two workers, all four sharing one disk-cache directory that starts
//! empty on every pass. The rendered tables must equal the published
//! `results/*.txt` byte for byte.
//!
//! The traced pass does the same work by calling the layers directly —
//! the engine's per-benchmark steps build → baseline run → instrument
//! → schedule → instrumented runs — and its cycle counts must equal
//! the untraced engine's rows.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use eel_bench::engine::Engine;
use eel_bench::experiment::{format_table, mean_pct_hidden, ExperimentConfig, Row};
use eel_core::{SchedOptions, Scheduler};
use eel_edit::{EditSession, Executable};
use eel_pipeline::MachineModel;
use eel_qpt::{ProfileOptions, Profiler};
use eel_sim::{run_with, RunConfig};
use eel_telemetry::{Registry, Tracer};
use eel_workloads::{spec95, Benchmark, BuildOptions, Suite};

use crate::pass::{count_block_contexts, emit_scheduled, fan_out, span, Pass};

pub const CLASSES: [&str; 4] = ["table1", "table2", "table3", "summary"];

/// (title, machine index, reschedule first) of Tables 1–3.
const TABLES: [(&str, usize, bool); 3] = [
    (
        "Table 1: Slow profiling instrumentation on the UltraSPARC",
        0,
        false,
    ),
    (
        "Table 2: Slow profiling on the UltraSPARC, originals first rescheduled by EEL",
        0,
        true,
    ),
    (
        "Table 3: Slow profiling instrumentation on the SuperSPARC",
        1,
        false,
    ),
];

const MACHINES: [&str; 2] = ["ultrasparc", "supersparc"];

/// The cells the engine shares across tables through its disk cache:
/// (machine, cell kind, benchmark) -> (cycles, exit code).
type Cells = Mutex<HashMap<(usize, &'static str, usize), (u64, u32)>>;

pub struct PaperTables {
    models: [MachineModel; 2],
    benchmarks: Vec<Benchmark>,
    /// The published `results/{table1,table2,table3,summary}.txt`.
    published: Vec<String>,
    cache: PathBuf,
    /// Rows of the latest untraced pass: Tables 1–3, then the summary's
    /// two machines. The traced pass checks its cycles against them.
    rows: Mutex<Vec<Vec<Row>>>,
}

pub fn setup(tracer: Option<&Tracer>, cache: PathBuf) -> Result<PaperTables, String> {
    let models = {
        let _s = span(tracer, "pipeline", "model", 0, 0);
        [MachineModel::ultrasparc(), MachineModel::supersparc()]
    };
    let published = CLASSES
        .iter()
        .map(|c| {
            let path = format!("results/{c}.txt");
            std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    Ok(PaperTables {
        models,
        benchmarks: spec95(),
        published,
        cache,
        rows: Mutex::new(Vec::new()),
    })
}

/// The `summary` binary's output for the two machines' rows.
fn summary_text(models: &[MachineModel; 2], rows: &[Vec<Row>]) -> String {
    let mut out = String::new();
    let (mut ints, mut fps) = (Vec::new(), Vec::new());
    for (model, rows) in models.iter().zip(rows) {
        let int: Vec<&Row> = rows.iter().filter(|r| r.suite == Suite::Cint).collect();
        let fp: Vec<&Row> = rows.iter().filter(|r| r.suite == Suite::Cfp).collect();
        let (i, f) = (mean_pct_hidden(&int), mean_pct_hidden(&fp));
        out.push_str(&format!(
            "{:<12} SPECINT hidden: {i:5.1}%   SPECFP hidden: {f:5.1}%\n",
            model.name()
        ));
        ints.push(i);
        fps.push(f);
    }
    let int = ints.iter().sum::<f64>() / ints.len() as f64;
    let fp = fps.iter().sum::<f64>() / fps.len() as f64;
    out.push_str("\nAcross both machines (paper's abstract: 13% / 33%):\n");
    out.push_str(&format!("  SPECINT average hidden: {int:5.1}%\n"));
    out.push_str(&format!("  SPECFP  average hidden: {fp:5.1}%\n"));
    out
}

impl PaperTables {
    fn engine(&self, machine: usize) -> Engine {
        Engine::new(&self.models[machine], &ExperimentConfig::default())
            .with_disk_cache(&self.cache)
    }

    /// One table through a fresh `Engine`, fanned out over two workers as
    /// `run_table` at two workers does it, but with one `run_table` call
    /// per benchmark. Each call is one item and runs on one vCPU, so its
    /// fastest time over the passes escapes a slow spell on the other
    /// (see README.md, "Noise"). A panic inside the engine fails the item.
    fn run_table(
        &self,
        class: usize,
        machine: usize,
        reschedule: bool,
        tracer: Option<&Tracer>,
        out: &mut Pass,
    ) -> Option<Vec<Row>> {
        let engine = self.engine(machine);
        let n = self.benchmarks.len();
        let first_id = if class < 3 {
            class * n
        } else {
            (3 + machine) * n
        };
        let calls = fan_out(n, |i| {
            let t = Instant::now();
            let _s = span(tracer, "engine", "run_table", (first_id + i) as u64, 0);
            let rows = catch_unwind(AssertUnwindSafe(|| {
                engine.run_table(&self.benchmarks[i..=i], reschedule, 1)
            }));
            (t.elapsed().as_nanos() as u64, rows)
        });
        let stats = engine.stats();
        out.count("engine.cells_computed", stats.computed());
        out.count("engine.disk_hits", stats.disk_hits());
        out.count("engine.mem_hits", stats.mem_hits());
        out.count("engine.sims", stats.sims());
        let mut table = Some(Vec::with_capacity(n));
        for (i, (ns, rows)) in calls.into_iter().enumerate() {
            let item = out.item_ns(class, ns);
            match (rows, &mut table) {
                (Ok(rows), Some(table)) if rows.len() == 1 => table.extend(rows),
                (Ok(rows), _) if rows.len() == 1 => {}
                _ => {
                    let name = self.benchmarks[i].name;
                    out.fail(
                        item,
                        format!("{} {name}: the engine panicked", CLASSES[class]),
                    );
                    table = None;
                }
            }
        }
        table
    }

    /// Both machines' rows for the summary, every cell a disk hit.
    fn summary_rows(&self, tracer: Option<&Tracer>, out: &mut Pass) -> Option<Vec<Vec<Row>>> {
        let rows: Vec<Option<Vec<Row>>> = (0..2)
            .map(|m| self.run_table(3, m, false, tracer, out))
            .collect();
        rows.into_iter().collect()
    }

    pub fn pass(&self, out: &mut Pass) {
        match std::fs::remove_dir_all(&self.cache) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => out.error(format!("{}: {e}", self.cache.display())),
        }
        let mut all_rows = Vec::new();
        for (class, &(title, machine, reschedule)) in TABLES.iter().enumerate() {
            let rows = self.run_table(class, machine, reschedule, None, out);
            if let Some(rows) = &rows {
                let text = format_table(title, &self.models[machine], rows, reschedule);
                self.compare(class, format!("{text}\n"), out);
            }
            all_rows.push(rows.unwrap_or_default());
        }
        let rows = self.summary_rows(None, out);
        if let Some(rows) = &rows {
            self.compare(3, summary_text(&self.models, rows), out);
        }
        all_rows.extend(rows.unwrap_or_default());
        *self.rows.lock().expect("rows lock") = all_rows;
    }

    fn compare(&self, class: usize, text: String, out: &mut Pass) {
        if text != self.published[class] {
            let name = CLASSES[class];
            out.error(format!(
                "{name}: rendered output differs from results/{name}.txt"
            ));
        }
    }

    pub fn remove_cache(&self) {
        let _ = std::fs::remove_dir_all(&self.cache);
    }

    /// The same work as [`PaperTables::pass`], with the engine's steps
    /// called directly under spans. Runs after an untraced pass, whose
    /// rows it checks and whose disk cache the summary step reads.
    pub fn traced_pass(&self, tracer: &Tracer, out: &mut Pass) {
        let expected = self.rows.lock().expect("rows lock").clone();
        let cells = Cells::default();
        let sim = Registry::new();
        let n = self.benchmarks.len();
        for (class, &(_, machine, reschedule)) in TABLES.iter().enumerate() {
            let steps = fan_out(n, |i| {
                let mut local = Pass::default();
                let t = Instant::now();
                let measured = catch_unwind(AssertUnwindSafe(|| {
                    let id = (class * n + i) as u64;
                    self.measure(machine, reschedule, i, id, &cells, &sim, tracer, &mut local)
                }));
                (t.elapsed().as_nanos() as u64, measured.is_ok(), local)
            });
            let cells = cells.lock().expect("cells lock");
            for (i, (ns, finished, local)) in steps.into_iter().enumerate() {
                out.absorb(local);
                let item = out.item_ns(class, ns);
                let base = if reschedule { "resched" } else { "uninst" };
                let inst = if reschedule { "inst-resched" } else { "inst" };
                let got = [base, inst, "sched"].map(|k| cells.get(&(machine, k, i)).copied());
                let want = expected.get(class).and_then(|rows| rows.get(i));
                let same = match (got, want) {
                    ([Some(b), Some(ins), Some(s)], Some(row)) => {
                        (b.0, ins.0, s.0) == (row.uninst_cycles, row.inst_cycles, row.sched_cycles)
                            && b.1 == ins.1
                            && b.1 == s.1
                    }
                    _ => false,
                };
                if !finished || !same {
                    out.fail(
                        item,
                        format!(
                            "{} {}: traced cycles {got:?} differ from the engine's row",
                            CLASSES[class], self.benchmarks[i].name
                        ),
                    );
                }
            }
        }
        count_block_contexts(&sim, out);
        // The summary step: every cell is a disk hit on the cache the
        // preceding untraced pass filled.
        let summary = self.summary_rows(Some(tracer), out);
        if summary.as_deref() != expected.get(3..5) {
            out.error("summary: cache-only rows differ from the engine's".into());
        }
    }

    /// One benchmark of one table, step by step as `Engine::measure`
    /// does it, computing only the cells no earlier table computed.
    #[allow(clippy::too_many_arguments)]
    fn measure(
        &self,
        machine: usize,
        reschedule: bool,
        i: usize,
        id: u64,
        cells: &Cells,
        sim: &Registry,
        tracer: &Tracer,
        out: &mut Pass,
    ) {
        let cfg = ExperimentConfig::default();
        let model = &self.models[machine];
        let measured = model.with_load_latency_bias(cfg.mem_bias);
        let scheduler = Scheduler::with_options(model.clone(), SchedOptions::default());
        let name = MACHINES[machine];
        let t = Some(tracer);
        let bench = &self.benchmarks[i];
        let original = {
            let _s = span(t, "workloads", "build", id, 0);
            bench.build(&BuildOptions {
                iterations: cfg.iterations,
                optimize: Some(measured.clone()),
            })
        };
        out.count("workloads.insns", original.text_len() as u64);
        let config = RunConfig {
            timing: Some(cfg.timing.clone()),
            ..RunConfig::default()
        };
        let cell = |kind: &'static str, exe: &Executable, out: &mut Pass| {
            let r = {
                let _s = span(t, "sim", "timed", id, 0);
                run_with(exe, Some(&measured), &config, sim)
            };
            match r {
                Ok(r) => {
                    out.count("sim.timed.instructions", r.instructions);
                    out.count("sim.timed.cycles", r.cycles);
                    out.count("sim.timed.runs", 1);
                    cells
                        .lock()
                        .expect("cells lock")
                        .insert((machine, kind, i), (r.cycles, r.exit_code));
                }
                Err(e) => out.error(format!("{} {kind} on {name}: {e}", bench.name)),
            }
        };
        let has = |kind: &str| {
            cells
                .lock()
                .expect("cells lock")
                .contains_key(&(machine, kind, i))
        };
        let open = |exe: &Executable, out: &mut Pass| {
            out.count("edit.insns", exe.text_len() as u64);
            let _s = span(t, "edit", "open", id, 0);
            EditSession::new(exe).expect("generated workloads analyze")
        };
        let instrument = |session: &mut EditSession, out: &mut Pass| {
            let _s = span(t, "qpt", "instrument", id, 0);
            let p = Profiler::instrument(session, ProfileOptions::default());
            out.count("qpt.blocks_counted", p.instrumented_blocks() as u64);
            out.count("qpt.blocks_skipped", p.skipped_blocks() as u64);
        };
        let unscheduled = |session: &EditSession| {
            let _s = span(t, "edit", "emit_unscheduled", id, 0);
            session.emit_unscheduled().expect("instrumentable")
        };

        if !has("uninst") {
            cell("uninst", &original, out);
        }
        let base = if reschedule {
            let session = open(&original, out);
            let rescheduled = emit_scheduled(&session, &scheduler, name, t, id, out)
                .expect("rescheduling preserves structure");
            cell("resched", &rescheduled, out);
            rescheduled
        } else {
            original.clone()
        };
        let mut session = open(&base, out);
        instrument(&mut session, out);
        let inst = unscheduled(&session);
        cell(if reschedule { "inst-resched" } else { "inst" }, &inst, out);
        if !has("sched") {
            let mut session = open(&original, out);
            instrument(&mut session, out);
            let scheduled =
                emit_scheduled(&session, &scheduler, name, t, id, out).expect("schedulable");
            cell("sched", &scheduled, out);
        }
        out.count("sched.queries", scheduler.stall_queries());
    }
}
