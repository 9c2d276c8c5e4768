//! `sim-modes`: the simulator in the four configurations real binaries
//! use, on the 18 `spec95` executables Table 1's Sched column
//! simulates (UltraSPARC-optimized, instrumented, scheduled).

use std::sync::OnceLock;
use std::time::Instant;

use eel_bench::experiment::ExperimentConfig;
use eel_core::{SchedOptions, Scheduler};
use eel_edit::{EditSession, Executable};
use eel_pipeline::MachineModel;
use eel_qpt::{ProfileOptions, Profiler};
use eel_sim::{run_with, DCacheConfig, RunConfig, RunResult, SimError, TimingConfig};
use eel_telemetry::{Registry, Sink, Tracer};
use eel_workloads::{spec95, BuildOptions};

use crate::pass::{count_block_contexts, emit_scheduled, fan_out, span, Pass};

pub const MODES: [&str; 4] = ["timed", "functional", "attributed", "dcache"];

pub struct SimModes {
    /// The measured UltraSPARC (nominal model plus the experiments'
    /// flat load bias).
    measured: MachineModel,
    /// The nominal UltraSPARC, which the D-cache mode times against:
    /// there the cache, not a flat bias, supplies memory time.
    nominal: MachineModel,
    timing: TimingConfig,
    /// (name, uninstrumented original, instrumented and scheduled).
    exes: Vec<(&'static str, Executable, Executable)>,
    /// Exit codes of the uninstrumented originals, found once per run.
    original_exits: OnceLock<Vec<u32>>,
}

pub fn setup(tracer: Option<&Tracer>, out: &mut Pass) -> Result<SimModes, String> {
    let cfg = ExperimentConfig::default();
    let (nominal, measured) = {
        let _s = span(tracer, "pipeline", "model", 0, 0);
        let nominal = MachineModel::ultrasparc();
        let measured = nominal.with_load_latency_bias(cfg.mem_bias);
        (nominal, measured)
    };
    let scheduler = Scheduler::with_options(nominal.clone(), SchedOptions::default());
    let mut exes = Vec::new();
    for (i, bench) in spec95().iter().enumerate() {
        let id = i as u64;
        let original = {
            let _s = span(tracer, "workloads", "build", id, 0);
            bench.build(&BuildOptions {
                iterations: cfg.iterations,
                optimize: Some(measured.clone()),
            })
        };
        out.count("workloads.insns", original.text_len() as u64);
        let mut session = {
            let _s = span(tracer, "edit", "open", id, 0);
            EditSession::new(&original).map_err(|e| format!("{}: {e}", bench.name))?
        };
        {
            let _s = span(tracer, "qpt", "instrument", id, 0);
            Profiler::instrument(&mut session, ProfileOptions::default());
        }
        let scheduled = emit_scheduled(&session, &scheduler, "ultrasparc", tracer, id, out)
            .map_err(|e| format!("{}: {e}", bench.name))?;
        exes.push((bench.name, original, scheduled));
    }
    Ok(SimModes {
        measured,
        nominal,
        timing: cfg.timing,
        exes,
        original_exits: OnceLock::new(),
    })
}

impl SimModes {
    fn run<S: Sink>(&self, mode: usize, exe: &Executable, sink: &S) -> Result<RunResult, SimError> {
        let timed = RunConfig {
            timing: Some(self.timing.clone()),
            ..RunConfig::default()
        };
        match MODES[mode] {
            "timed" => run_with(exe, Some(&self.measured), &timed, sink),
            "functional" => run_with(exe, None, &RunConfig::default(), sink),
            "attributed" => {
                let config = RunConfig {
                    attribute_stalls: true,
                    ..timed
                };
                run_with(exe, Some(&self.measured), &config, sink)
            }
            _ => {
                let config = RunConfig {
                    timing: Some(TimingConfig {
                        dcache: Some(DCacheConfig {
                            size: 4096,
                            line: 32,
                            miss_penalty: 8,
                        }),
                        ..self.timing.clone()
                    }),
                    ..RunConfig::default()
                };
                run_with(exe, Some(&self.nominal), &config, sink)
            }
        }
    }

    /// Runs each uninstrumented original once, functionally, for the
    /// exit codes every mode must reproduce.
    pub fn check(&self, out: &mut Pass) {
        let mut exits = Vec::new();
        for (name, original, _) in &self.exes {
            let t = Instant::now();
            let r = run_with(original, None, &RunConfig::default(), &());
            let i = out.item(0, t);
            match r {
                Ok(r) => exits.push(r.exit_code),
                Err(e) => {
                    out.fail(i, format!("{name}: original faulted: {e}"));
                    exits.push(u32::MAX);
                }
            }
        }
        let _ = self.original_exits.set(exits);
    }

    /// One pass: every executable in every mode. The runs are spread
    /// over [`WORKERS`](crate::pass::WORKERS) threads. On a shared host
    /// the two vCPUs slow down independently of each other, and a run's
    /// fastest time over the passes then comes from the quieter one.
    pub fn pass(&self, tracer: Option<&Tracer>, out: &mut Pass) {
        let registry = Registry::new();
        let n = self.exes.len();
        let runs = fan_out(MODES.len() * n, |job| {
            let (mode, exe) = (job / n, &self.exes[job % n].2);
            let t = Instant::now();
            let _s = span(tracer, "sim", MODES[mode], job as u64, 0);
            let r = match tracer {
                None => self.run(mode, exe, &()),
                Some(_) => self.run(mode, exe, &registry),
            };
            (t.elapsed().as_nanos() as u64, r)
        });
        // (instructions, cycles, exit code, item index) per mode and executable.
        let mut results = vec![Vec::new(); MODES.len()];
        for (job, (ns, r)) in runs.into_iter().enumerate() {
            let (mode, name) = (job / n, self.exes[job % n].0);
            let mode_name = MODES[mode];
            let item = out.item_ns(mode, ns);
            match r {
                Ok(r) => {
                    out.count(format!("sim.{mode_name}.instructions"), r.instructions);
                    out.count(format!("sim.{mode_name}.cycles"), r.cycles);
                    out.count(format!("sim.{mode_name}.runs"), 1);
                    results[mode].push((r.instructions, r.cycles, r.exit_code, item));
                }
                Err(e) => {
                    out.fail(item, format!("{name} ({mode_name}): {e}"));
                    results[mode].push((0, 0, u32::MAX, item));
                }
            }
        }
        let exits = self
            .original_exits
            .get()
            .expect("check() runs before any pass");
        let [timed, functional, attributed, _] = &results[..] else {
            unreachable!("one result list per mode")
        };
        for (i, (name, _, _)) in self.exes.iter().enumerate() {
            if attributed[i].1 != timed[i].1 {
                out.fail(
                    attributed[i].3,
                    format!(
                        "{name}: attributed cycles {} != timed cycles {}",
                        attributed[i].1, timed[i].1
                    ),
                );
            }
            if functional[i].0 != timed[i].0 {
                out.fail(
                    functional[i].3,
                    format!(
                        "{name}: functional instructions {} != timed instructions {}",
                        functional[i].0, timed[i].0
                    ),
                );
            }
            for (mode, runs) in results.iter().enumerate() {
                if runs[i].2 != exits[i] {
                    out.fail(
                        runs[i].3,
                        format!(
                            "{name} ({}): exit code {} != original's {}",
                            MODES[mode], runs[i].2, exits[i]
                        ),
                    );
                }
            }
        }
        if tracer.is_some() {
            count_block_contexts(&registry, out);
        }
    }
}
