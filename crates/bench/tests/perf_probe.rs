//! The block engine against the interpretive oracle on real generated
//! workloads, in every simulator mode.
//!
//! `block_engine_matches_reference_on_spec95` runs on every `cargo
//! test`: a few `spec95` executables at reduced iterations, original
//! and QPT-instrumented, must produce identical [`RunResult`]s from
//! [`eel_sim::run`] and [`ReferenceCpu::run`]. The ignored
//! `real_workloads` probe repeats that over the whole suite at full
//! size and prints per-mode speeds; run it with
//! `cargo test -p eel-bench --release --test perf_probe -- --ignored --nocapture`.

use eel_edit::{EditSession, Executable};
use eel_pipeline::MachineModel;
use eel_qpt::{ProfileOptions, Profiler};
use eel_sim::{
    run, run_with, BranchPredictorConfig, DCacheConfig, ICacheConfig, ReferenceCpu, RunConfig,
    RunResult, TimingConfig,
};
use eel_sparc::{Instruction, MemWidth, Operand};
use eel_workloads::{cfp95, cint95, spec95, Benchmark, BuildOptions};
use std::time::Instant;

/// The four simulator modes, as real binaries configure them (with
/// the I-cache and branch predictor added to every timed mode): timed
/// and attributed on the measured machine, functional with no model,
/// and a data cache on the nominal machine.
fn modes() -> Vec<(&'static str, Option<MachineModel>, RunConfig)> {
    let nominal = MachineModel::ultrasparc();
    let measured = nominal.with_load_latency_bias(2);
    let timing = TimingConfig {
        taken_branch_penalty: 1,
        icache: Some(ICacheConfig::default()),
        predictor: Some(BranchPredictorConfig::default()),
        ..TimingConfig::default()
    };
    let timed = RunConfig {
        timing: Some(timing.clone()),
        ..RunConfig::default()
    };
    let attributed = RunConfig {
        attribute_stalls: true,
        ..timed.clone()
    };
    let dcache = RunConfig {
        timing: Some(TimingConfig {
            dcache: Some(DCacheConfig {
                size: 4096,
                line: 32,
                miss_penalty: 8,
            }),
            ..timing
        }),
        ..RunConfig::default()
    };
    vec![
        ("timed", Some(measured.clone()), timed),
        ("functional", None, RunConfig::default()),
        ("attributed", Some(measured), attributed),
        ("dcache", Some(nominal), dcache),
    ]
}

/// `bench` built for UltraSPARC, and the same build with QPT's block
/// counters inserted.
fn executables(bench: &Benchmark, iterations: Option<u32>) -> [Executable; 2] {
    let original = bench.build(&BuildOptions {
        iterations,
        optimize: Some(MachineModel::ultrasparc()),
    });
    let mut session = EditSession::new(&original).expect("analyzable");
    let _profiler = Profiler::instrument(&mut session, ProfileOptions::default());
    let instrumented = session.emit_unscheduled().expect("instrumentable");
    [original, instrumented]
}

/// Every field of the two results must match; `what` names the case.
fn assert_identical(fast: &RunResult, refr: &RunResult, what: &str) {
    assert_eq!(fast.instructions, refr.instructions, "{what}: instructions");
    assert_eq!(fast.cycles, refr.cycles, "{what}: cycles");
    assert_eq!(fast.exit_code, refr.exit_code, "{what}: exit code");
    assert!(fast.pc_counts == refr.pc_counts, "{what}: pc_counts");
    assert!(
        fast.taken_counts == refr.taken_counts,
        "{what}: taken_counts"
    );
    assert_eq!(fast.icache_misses, refr.icache_misses, "{what}: I-cache");
    assert_eq!(fast.dcache_misses, refr.dcache_misses, "{what}: D-cache");
    assert_eq!(fast.mispredicts, refr.mispredicts, "{what}: mispredicts");
    assert_eq!(fast.taken_branches, refr.taken_branches, "{what}: taken");
    assert_eq!(fast.mem_ops, refr.mem_ops, "{what}: mem_ops");
    assert_eq!(
        fast.stall_profile, refr.stall_profile,
        "{what}: attribution"
    );
    assert!(fast.memory == refr.memory, "{what}: final memory");
    // Catches any field added after this list was written.
    assert!(fast == refr, "{what}: run results differ");
}

#[test]
fn block_engine_matches_reference_on_spec95() {
    let benches = [&cint95()[0], &cint95()[4], &cfp95()[3]];
    for bench in benches {
        for (i, exe) in executables(bench, Some(10)).iter().enumerate() {
            for (mode, model, cfg) in modes() {
                let fast = run(exe, model.as_ref(), &cfg).expect("runs");
                let refr = ReferenceCpu::run(exe, model.as_ref(), &cfg).expect("runs");
                let what = format!("{} #{i} {mode}", bench.name);
                assert!(fast.instructions > 1000, "{what}: too small to test");
                if mode == "dcache" {
                    assert!(fast.dcache_misses > 0, "{what}: no D-cache misses");
                }
                assert_identical(&fast, &refr, &what);
            }
        }
    }
}

fn covered(insn: &Instruction) -> bool {
    match *insn {
        Instruction::Alu { .. } | Instruction::Sethi { .. } => true,
        Instruction::Load {
            width: MemWidth::Word,
            addr,
            ..
        }
        | Instruction::Store {
            width: MemWidth::Word,
            addr,
            ..
        } => matches!(addr.offset, Operand::Imm(_)),
        _ => false,
    }
}

#[test]
#[ignore]
fn real_workloads() {
    for b in spec95() {
        // The original only: full-size instrumented runs would double
        // the probe's time for little extra coverage.
        let [exe, _] = executables(&b, None);
        for (mode, model, cfg) in modes() {
            let reg = eel_telemetry::Registry::new();
            let t = Instant::now();
            let r = run_with(&exe, model.as_ref(), &cfg, &reg).unwrap();
            let fast_ns = t.elapsed().as_nanos() as f64 / r.instructions as f64;
            let snap = reg.snapshot();
            let t = Instant::now();
            let rr = ReferenceCpu::run(&exe, model.as_ref(), &cfg).unwrap();
            let ref_ns = t.elapsed().as_nanos() as f64 / rr.instructions as f64;
            assert_identical(&r, &rr, &format!("{} {mode}", b.name));
            // Dynamic coverage of the flat replay ops, weighted by pc_counts.
            let text = exe.text();
            let mut dyn_total = 0u64;
            let mut dyn_other = 0u64;
            for (i, &w) in text.iter().enumerate() {
                let n = r.pc_counts[i];
                if n == 0 {
                    continue;
                }
                dyn_total += n;
                let insn = Instruction::decode(w);
                let is_cti = insn.control_kind() != eel_sparc::ControlKind::None;
                if is_cti || !covered(&insn) {
                    dyn_other += n;
                }
            }
            println!(
                "{:<12} {:<10} {:>8} insns  fast {:>5.1} ref {:>5.1} ns/insn  ({:.2}x)  \
                 other {:>4.1}%  hits {:>6} misses {:>5} taken {:>6} fused {:>6} builds {:>5}",
                b.name,
                mode,
                r.instructions,
                fast_ns,
                ref_ns,
                ref_ns / fast_ns,
                100.0 * dyn_other as f64 / dyn_total as f64,
                snap.counters["sim.block_ctx_hits"],
                snap.counters["sim.block_ctx_misses"],
                snap.counters["sim.taken_branches"],
                snap.counters["sim.block_slot_fused"],
                snap.counters["sim.block_builds"],
            );
        }
    }
}
