//! `edit-schedule`: EEL used as an editing tool, with no compiler and
//! no simulator in the timed passes. Every executable of the `full`
//! corpus shape is opened, instrumented with QPT2 slow profiling,
//! emitted unscheduled, and emitted scheduled, for each of three
//! machines.

use std::collections::BTreeMap;
use std::time::Instant;

use eel_core::{SchedOptions, Scheduler};
use eel_edit::{EditSession, Executable};
use eel_pipeline::MachineModel;
use eel_qpt::{ProfileOptions, Profiler};
use eel_sim::{run_with, RunConfig, SimError};
use eel_telemetry::{fnv1a, Tracer};
use eel_workloads::{parse_manifest, BuildOptions, FULL_MANIFEST};

use crate::pass::{emit_scheduled, fan_out, span, Pass};

pub const MACHINES: [&str; 3] = ["hypersparc", "supersparc", "ultrasparc"];

/// Per-item text digests at seed 0, one line per (machine, executable).
pub const DIGESTS: &str = "eelbench/ref/edit-schedule.digests";

pub struct EditSchedule {
    models: Vec<MachineModel>,
    exes: Vec<(&'static str, Executable)>,
    /// Expected `(machine, name) -> digest` at seed 0; `None` otherwise.
    reference: Option<BTreeMap<(String, String), String>>,
}

/// `FULL_MANIFEST` with each `gen` line's seed mixed with `seed`.
/// Seed 0 reproduces the manifest exactly.
pub fn manifest(seed: u64) -> String {
    let mut out = String::new();
    for line in FULL_MANIFEST.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words[..] {
            ["gen", kind, count, base] => {
                let base: u64 = base.parse().expect("FULL_MANIFEST seeds are numbers");
                let mixed = base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                out.push_str(&format!("gen {kind} {count} {mixed}\n"));
            }
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

/// Builds the corpus for `seed`. With `check_digests`, seed 0's
/// per-item text digests are loaded from [`DIGESTS`] for every pass to
/// compare against.
pub fn setup(
    seed: u64,
    check_digests: bool,
    tracer: Option<&Tracer>,
    out: &mut Pass,
) -> Result<EditSchedule, String> {
    let models = {
        let _s = span(tracer, "pipeline", "model", 0, 0);
        vec![
            MachineModel::hypersparc(),
            MachineModel::supersparc(),
            MachineModel::ultrasparc(),
        ]
    };
    let corpus = parse_manifest(&manifest(seed)).map_err(|e| format!("corpus: {e}"))?;
    let options = BuildOptions {
        iterations: None,
        optimize: None,
    };
    let mut exes = Vec::with_capacity(corpus.len());
    for (i, bench) in corpus.iter().enumerate() {
        let exe = {
            let _s = span(tracer, "workloads", "build", i as u64, 0);
            bench.build(&options)
        };
        out.count("workloads.insns", exe.text_len() as u64);
        exes.push((bench.name, exe));
    }
    let reference = if check_digests && seed == 0 {
        let text = std::fs::read_to_string(DIGESTS).map_err(|e| format!("{DIGESTS}: {e}"))?;
        let mut map = BTreeMap::new();
        for line in text.lines() {
            if let [machine, name, digest] = line.split_whitespace().collect::<Vec<_>>()[..] {
                map.insert((machine.to_string(), name.to_string()), digest.to_string());
            }
        }
        Some(map)
    } else {
        None
    };
    Ok(EditSchedule {
        models,
        exes,
        reference,
    })
}

/// What one edit produced.
struct Edited {
    profiler: Profiler,
    unscheduled: Executable,
    scheduled: Executable,
}

impl EditSchedule {
    fn edit(
        &self,
        exe: &Executable,
        scheduler: &Scheduler,
        machine: &'static str,
        tracer: Option<&Tracer>,
        id: u64,
        out: &mut Pass,
    ) -> Result<Edited, String> {
        let mut session = {
            let _s = span(tracer, "edit", "open", id, 0);
            EditSession::new(exe).map_err(|e| e.to_string())?
        };
        let profiler = {
            let _s = span(tracer, "qpt", "instrument", id, 0);
            Profiler::instrument(&mut session, ProfileOptions::default())
        };
        let unscheduled = {
            let _s = span(tracer, "edit", "emit_unscheduled", id, 0);
            session.emit_unscheduled().map_err(|e| e.to_string())?
        };
        let scheduled = emit_scheduled(&session, scheduler, machine, tracer, id, out)
            .map_err(|e| e.to_string())?;
        out.count("edit.insns", exe.text_len() as u64);
        out.count("qpt.blocks_counted", profiler.instrumented_blocks() as u64);
        out.count("qpt.blocks_skipped", profiler.skipped_blocks() as u64);
        Ok(Edited {
            profiler,
            unscheduled,
            scheduled,
        })
    }

    /// Calls `f` with each (machine index, executable index, item
    /// index, edit result), timing each edit as one item of its
    /// machine's class. The edits of one machine are spread over
    /// [`WORKERS`](crate::pass::WORKERS) threads, so that each edit's
    /// fastest time over the passes escapes a slow spell on one vCPU
    /// (see README.md, "Noise").
    fn each_edit(
        &self,
        tracer: Option<&Tracer>,
        out: &mut Pass,
        mut f: impl FnMut(usize, usize, usize, Edited, &mut Pass),
    ) {
        let n = self.exes.len();
        for (m, model) in self.models.iter().enumerate() {
            let scheduler = Scheduler::with_options(model.clone(), SchedOptions::default());
            let edits = fan_out(n, |i| {
                let mut local = Pass::default();
                let t = Instant::now();
                let id = (m * n + i) as u64;
                let edited = self.edit(
                    &self.exes[i].1,
                    &scheduler,
                    MACHINES[m],
                    tracer,
                    id,
                    &mut local,
                );
                (t.elapsed().as_nanos() as u64, edited, local)
            });
            for (i, (ns, edited, local)) in edits.into_iter().enumerate() {
                out.absorb(local);
                let item = out.item_ns(m, ns);
                match edited {
                    Ok(e) => f(m, i, item, e, out),
                    Err(e) => out.fail(item, format!("{} ({}): {e}", self.exes[i].0, MACHINES[m])),
                }
            }
            out.count("sched.queries", scheduler.stall_queries());
        }
    }

    pub fn pass(&self, tracer: Option<&Tracer>, out: &mut Pass) {
        let mut all = Vec::new();
        self.each_edit(tracer, out, |m, i, item, e, out| {
            let (name, _) = self.exes[i];
            let machine = MACHINES[m];
            if e.scheduled.text_len() != e.unscheduled.text_len() {
                out.fail(
                    item,
                    format!(
                        "{name} ({machine}): scheduled text has {} words, unscheduled {}",
                        e.scheduled.text_len(),
                        e.unscheduled.text_len()
                    ),
                );
            }
            let digest = format!("{:016x}", text_digest(&e.scheduled));
            all.push(digest.clone());
            if let Some(reference) = &self.reference {
                let want = reference.get(&(machine.to_string(), name.to_string()));
                if want != Some(&digest) {
                    out.fail(
                        item,
                        format!("{name} ({machine}): text digest {digest}, reference {want:?}"),
                    );
                }
            }
        });
        out.count("edit.text_digest", fnv1a(all.concat().as_bytes()));
    }

    /// Once per run, outside the timed passes: every scheduled
    /// executable, run functionally, must exit like its unscheduled
    /// twin and leave the same QPT counter table.
    pub fn check(&self, out: &mut Pass) {
        let mut unscheduled_runs: BTreeMap<usize, Result<(u32, Vec<u32>), String>> =
            BTreeMap::new();
        self.each_edit(None, out, |m, i, item, e, out| {
            let (name, _) = self.exes[i];
            let want = unscheduled_runs
                .entry(i)
                .or_insert_with(|| counters(&e.unscheduled, &e.profiler))
                .clone();
            match (want, counters(&e.scheduled, &e.profiler)) {
                (Ok(want), Ok(got)) if want == got => {}
                (Ok(want), Ok(got)) => out.fail(
                    item,
                    format!(
                        "{name} ({}): scheduled run exits {} with counters {:016x}, \
                         unscheduled exits {} with {:016x}",
                        MACHINES[m],
                        got.0,
                        digest_words(&got.1),
                        want.0,
                        digest_words(&want.1)
                    ),
                ),
                (Err(e), _) | (_, Err(e)) => out.fail(item, format!("{name}: {e}")),
            }
        });
    }

    /// The `machine name digest` lines of [`DIGESTS`] for this corpus.
    pub fn digest_lines(&self) -> String {
        let mut lines = String::new();
        self.each_edit(None, &mut Pass::default(), |m, i, _, e, _| {
            lines.push_str(&format!(
                "{} {} {:016x}\n",
                MACHINES[m],
                self.exes[i].0,
                text_digest(&e.scheduled)
            ));
        });
        lines
    }
}

/// Runs `exe` functionally: its exit code and QPT counter table.
fn counters(exe: &Executable, profiler: &Profiler) -> Result<(u32, Vec<u32>), String> {
    let mut r = run_with(exe, None, &RunConfig::default(), &()).map_err(|e| e.to_string())?;
    let table = (0..profiler.instrumented_blocks() as u32)
        .map(|k| r.memory.read_u32(profiler.counter_base() + 4 * k))
        .collect::<Result<Vec<u32>, SimError>>()
        .map_err(|e| e.to_string())?;
    Ok((r.exit_code, table))
}

fn text_digest(exe: &Executable) -> u64 {
    digest_words(exe.text())
}

fn digest_words(words: &[u32]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a(&bytes)
}
