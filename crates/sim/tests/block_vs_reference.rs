//! Differential property test: the block-replay engine behind
//! [`eel_sim::run`] must agree **exactly** with the retained
//! per-instruction [`ReferenceCpu`] — same retired-instruction count,
//! same cycle count, same exit code or fault, same execution and
//! taken-edge profiles, same cache/predictor totals, same stall
//! attribution, and same final memory — on randomized programs, on
//! every shipped machine model, in every run mode: functional, timed
//! with and without the instruction cache and branch predictor,
//! stall-attributed, and with a data cache.
//!
//! Programs come from two generators: raw word soup (decode is total,
//! so arbitrary `u32`s explore the whole instruction space, including
//! wild control flow and faulting memory traffic — faults must match
//! too) and bounded countdown loops whose bodies are random words
//! (steady-state re-execution is what the timing memo actually
//! caches, so loops are the interesting case). Runaway control flow
//! is bounded by a small instruction budget; hitting it is itself a
//! compared outcome.

use eel_edit::Executable;
use eel_pipeline::MachineModel;
use eel_sim::{
    run, run_with, BranchPredictorConfig, DCacheConfig, ICacheConfig, ReferenceCpu, RunConfig,
    RunResult, SimError, TimingConfig,
};
use eel_sparc::{Address, Assembler, Cond, Instruction, IntReg, Operand};
use proptest::prelude::*;

fn shipped_models() -> Vec<MachineModel> {
    vec![
        MachineModel::hypersparc(),
        MachineModel::supersparc(),
        MachineModel::ultrasparc(),
        MachineModel::microsparc(),
        MachineModel::vliw(),
        MachineModel::deepsparc(),
    ]
}

/// A raw program: the words as given, with a trap exit appended so at
/// least one halting path exists.
fn soup_exe(words: &[u32]) -> Executable {
    let mut text = words.to_vec();
    text.push(0x91d0_2000); // ta 0
    let mut exe = Executable::from_words(0x10000, text);
    exe.reserve_bss(4096);
    exe
}

/// A countdown loop around the body words: guaranteed forward
/// progress toward the trap exit, while the body reruns enough times
/// for the block memo to reach steady state.
fn loop_exe(body: &[u32], iters: u32) -> Executable {
    let mut a = Assembler::new();
    let top = a.new_label();
    a.set(iters, IntReg::L0);
    a.bind(top);
    for &w in body {
        // `decode` is total, so any word becomes *some* instruction
        // (including CTIs that may leave the loop — the budget bounds
        // those runs).
        a.push(eel_sparc::Instruction::decode(w));
    }
    a.subcc(IntReg::L0, Operand::imm(1), IntReg::L0);
    a.b(Cond::Ne, top);
    a.nop();
    a.ta(0);
    let text: Vec<u32> = a.finish().unwrap().iter().map(|i| i.encode()).collect();
    let mut exe = Executable::from_words(0x10000, text);
    exe.reserve_bss(4096);
    exe
}

/// Run both engines and require identical observable outcomes.
fn assert_engines_agree(exe: &Executable, model: &MachineModel, cfg: &RunConfig) {
    let fast = run(exe, Some(model), cfg);
    let refr = ReferenceCpu::run(exe, Some(model), cfg);
    assert_outcomes_agree(fast, refr, model.name());
}

/// Every field of two run outcomes must match; `on` names the case.
fn assert_outcomes_agree(
    fast: Result<RunResult, SimError>,
    refr: Result<RunResult, SimError>,
    on: &str,
) {
    match (fast, refr) {
        (Err(a), Err(b)) => assert_eq!(a, b, "fault mismatch on {on}"),
        (Ok(a), Ok(b)) => {
            assert_eq!(a.instructions, b.instructions, "insns on {on}");
            assert_eq!(a.cycles, b.cycles, "cycles on {on}");
            assert_eq!(a.exit_code, b.exit_code, "exit on {on}");
            assert_eq!(a.pc_counts, b.pc_counts, "pc profile on {on}");
            assert_eq!(a.taken_counts, b.taken_counts, "taken profile on {on}");
            assert_eq!(a.icache_misses, b.icache_misses, "icache misses on {on}");
            assert_eq!(a.dcache_misses, b.dcache_misses, "dcache misses on {on}");
            assert_eq!(a.mispredicts, b.mispredicts, "mispredicts on {on}");
            assert_eq!(a.taken_branches, b.taken_branches, "taken on {on}");
            assert_eq!(a.mem_ops, b.mem_ops, "mem ops on {on}");
            assert_eq!(a.stall_profile, b.stall_profile, "attribution on {on}");
            // Final memory: stores must have replayed identically.
            assert!(a.memory == b.memory, "final memory on {on}");
            assert_eq!(a, b, "run results on {on}");
        }
        (a, b) => panic!(
            "outcome kind mismatch on {on}: fast {:?} vs reference {:?}",
            a.map(|r| r.exit_code),
            b.map(|r| r.exit_code)
        ),
    }
}

/// Every run mode the block engine serves: functional (a model but no
/// timing), bare pipeline timing, the full measured machine with a
/// deliberately tiny I-cache and predictor so conflict misses and
/// mispredicts are dense, and that machine with stall attribution or
/// with a tiny data cache (both walk every issue instead of replaying
/// the timing memo).
fn configs() -> Vec<RunConfig> {
    let bare = RunConfig {
        max_instructions: 20_000,
        timing: Some(TimingConfig {
            taken_branch_penalty: 1,
            ..TimingConfig::default()
        }),
        ..RunConfig::default()
    };
    let mut full = bare.clone();
    full.timing = Some(TimingConfig {
        taken_branch_penalty: 2,
        icache: Some(ICacheConfig {
            size: 256,
            line: 32,
            miss_penalty: 7,
        }),
        predictor: Some(BranchPredictorConfig {
            entries: 16,
            mispredict_penalty: 3,
        }),
        ..TimingConfig::default()
    });
    let functional = RunConfig {
        timing: None,
        ..bare.clone()
    };
    let attributed = RunConfig {
        attribute_stalls: true,
        ..full.clone()
    };
    let mut dcache = full.clone();
    if let Some(t) = dcache.timing.as_mut() {
        t.dcache = Some(DCacheConfig {
            size: 64,
            line: 16,
            miss_penalty: 5,
        });
    }
    vec![functional, bare, full, attributed, dcache]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn word_soup_agrees(words in prop::collection::vec(any::<u32>(), 1..40)) {
        let exe = soup_exe(&words);
        for model in shipped_models() {
            for cfg in configs() {
                assert_engines_agree(&exe, &model, &cfg);
            }
        }
    }

    #[test]
    fn random_loops_agree(
        body in prop::collection::vec(any::<u32>(), 1..24),
        iters in 2u32..60,
    ) {
        let exe = loop_exe(&body, iters);
        for model in shipped_models() {
            for cfg in configs() {
                assert_engines_agree(&exe, &model, &cfg);
            }
        }
    }

    #[test]
    fn functional_only_runs_agree(words in prop::collection::vec(any::<u32>(), 1..40)) {
        // No model at all: the pure functional path must match too.
        let exe = soup_exe(&words);
        let cfg = RunConfig {
            max_instructions: 20_000,
            ..RunConfig::default()
        };
        let fast = run(&exe, None, &cfg);
        let refr = ReferenceCpu::run(&exe, None, &cfg);
        assert_outcomes_agree(fast, refr, "no model");
    }
}

/// `SimError` equality is what the proptests rely on for fault
/// comparison; pin one concrete interesting case — an instruction
/// budget fault must report the same retired count from both engines.
#[test]
fn budget_fault_reports_identical_retired_counts() {
    // An infinite loop: `b always` back to itself with a nop slot.
    let mut a = Assembler::new();
    let top = a.new_label();
    a.bind(top);
    a.b(Cond::A, top);
    a.nop();
    let words: Vec<u32> = a.finish().unwrap().iter().map(|i| i.encode()).collect();
    let mut exe = Executable::from_words(0x10000, words);
    exe.reserve_bss(64);
    let model = MachineModel::ultrasparc();
    for budget in [1u64, 2, 3, 100, 101] {
        let cfg = RunConfig {
            max_instructions: budget,
            timing: Some(TimingConfig::default()),
            ..RunConfig::default()
        };
        let fast = run(&exe, Some(&model), &cfg).expect_err("loop never exits");
        let refr = ReferenceCpu::run(&exe, Some(&model), &cfg).expect_err("loop never exits");
        assert_eq!(fast, refr, "budget {budget}");
        assert!(matches!(
            fast,
            SimError::InstructionLimit { limit, .. } if limit == budget
        ));
    }
}

/// Crafted I-cache conflict: a loop whose body spans two lines that
/// collide in a 2-line direct-mapped cache with a third straddling
/// block, so every iteration misses. The block engine's batched
/// per-line probes must report the same miss total as the reference's
/// per-instruction probes — and the expected count is known.
#[test]
fn crafted_icache_conflicts_count_identically() {
    let mut a = Assembler::new();
    let top = a.new_label();
    a.set(50, IntReg::L0);
    a.bind(top);
    // 24 straight-line words ≈ 96 bytes: spans 4 lines of 32 bytes,
    // overflowing a 64-byte cache every iteration.
    for _ in 0..24 {
        a.add(IntReg::O0, Operand::imm(1), IntReg::O0);
    }
    a.subcc(IntReg::L0, Operand::imm(1), IntReg::L0);
    a.b(Cond::Ne, top);
    a.nop();
    a.ta(0);
    let words: Vec<u32> = a.finish().unwrap().iter().map(|i| i.encode()).collect();
    let mut exe = Executable::from_words(0x10000, words);
    exe.reserve_bss(64);
    let model = MachineModel::ultrasparc();
    let cfg = RunConfig {
        timing: Some(TimingConfig {
            icache: Some(ICacheConfig {
                size: 64,
                line: 32,
                miss_penalty: 8,
            }),
            ..TimingConfig::default()
        }),
        ..RunConfig::default()
    };
    let fast = run(&exe, Some(&model), &cfg).unwrap();
    let refr = ReferenceCpu::run(&exe, Some(&model), &cfg).unwrap();
    assert_eq!(fast.icache_misses, refr.icache_misses);
    assert_eq!(fast.cycles, refr.cycles);
    assert!(
        fast.icache_misses > 100,
        "thrashing loop must miss every iteration, got {}",
        fast.icache_misses
    );
}

/// Crafted mispredict stream: an alternating branch defeats two-bit
/// counters, so mispredicts are dense; the block engine observes the
/// predictor once per conditional branch at the terminator, exactly
/// like the reference observes it per retired branch.
#[test]
fn crafted_alternating_branch_mispredicts_identically() {
    let mut a = Assembler::new();
    let top = a.new_label();
    let skip = a.new_label();
    a.set(200, IntReg::L0);
    a.set(0, IntReg::L1);
    a.bind(top);
    // Toggle L1 between 0 and 1; branch on its value: taken,
    // untaken, taken, … — the worst case for 2-bit counters.
    a.xor(IntReg::L1, Operand::imm(1), IntReg::L1);
    a.subcc(IntReg::L1, Operand::imm(0), IntReg::G0);
    a.b(Cond::Ne, skip); // taken when L1 flipped to 1
    a.nop();
    a.add(IntReg::O0, Operand::imm(1), IntReg::O0);
    a.bind(skip);
    a.subcc(IntReg::L0, Operand::imm(1), IntReg::L0);
    a.b(Cond::Ne, top);
    a.nop();
    a.ta(0);
    let words: Vec<u32> = a.finish().unwrap().iter().map(|i| i.encode()).collect();
    let mut exe = Executable::from_words(0x10000, words);
    exe.reserve_bss(64);
    let model = MachineModel::ultrasparc();
    let cfg = RunConfig {
        timing: Some(TimingConfig {
            predictor: Some(BranchPredictorConfig {
                entries: 64,
                mispredict_penalty: 4,
            }),
            taken_branch_penalty: 1,
            ..TimingConfig::default()
        }),
        ..RunConfig::default()
    };
    let fast = run(&exe, Some(&model), &cfg).unwrap();
    let refr = ReferenceCpu::run(&exe, Some(&model), &cfg).unwrap();
    assert_eq!(fast.mispredicts, refr.mispredicts);
    assert_eq!(fast.cycles, refr.cycles);
    assert_eq!(fast.taken_branches, refr.taken_branches);
    assert!(
        fast.mispredicts > 80,
        "alternation defeats 2-bit counters, got {}",
        fast.mispredicts
    );
}

/// Crafted D-cache miss in a fused delay slot: the loop's back edge is
/// taken with a striding load in its delay slot, which the block engine
/// executes inline after the branch. Every slot load misses a tiny data
/// cache, and the next iteration's first instruction uses the loaded
/// value, so the miss latency, the miss count, and the RAW stall
/// charged to the slot's text word must all match the reference. The
/// body also loads through a pointer into the pointer's own register,
/// so probing at the post-execution address would miss differently.
#[test]
fn crafted_dcache_miss_in_fused_delay_slot() {
    let mut a = Assembler::new();
    let top = a.new_label();
    a.set(Executable::DEFAULT_DATA_BASE, IntReg::O5);
    a.set(60, IntReg::L0);
    a.mov(Operand::imm(0), IntReg::O2);
    a.bind(top);
    a.add(IntReg::O3, Operand::imm(1), IntReg::O4); // uses the slot load
    a.add(IntReg::O5, Operand::Reg(IntReg::O2), IntReg::O1);
    a.ld(Address::base_imm(IntReg::O1, 0), IntReg::O1); // overwrites its base
    a.add(IntReg::O2, Operand::imm(32), IntReg::O2);
    a.subcc(IntReg::L0, Operand::imm(1), IntReg::L0);
    a.b(Cond::Ne, top);
    a.ld(Address::base_reg(IntReg::O5, IntReg::O2), IntReg::O3);
    a.ta(0);
    let insns = a.finish().unwrap();
    let slot_word = insns
        .iter()
        .rposition(|i| matches!(i, Instruction::Load { .. }))
        .unwrap() as u32;
    let mut exe = Executable::from_words(0x10000, insns.iter().map(|i| i.encode()).collect());
    exe.reserve_bss(4096);
    let model = MachineModel::ultrasparc();
    for attribute_stalls in [false, true] {
        let cfg = RunConfig {
            timing: Some(TimingConfig {
                taken_branch_penalty: 1,
                dcache: Some(DCacheConfig {
                    size: 64,
                    line: 16,
                    miss_penalty: 9,
                }),
                ..TimingConfig::default()
            }),
            attribute_stalls,
            ..RunConfig::default()
        };
        let reg = eel_telemetry::Registry::new();
        let fast = run_with(&exe, Some(&model), &cfg, &reg).unwrap();
        let refr = ReferenceCpu::run(&exe, Some(&model), &cfg).unwrap();
        assert!(
            reg.snapshot().counters["sim.block_slot_fused"] >= 59,
            "the slot load must take the fused path"
        );
        assert!(fast.dcache_misses >= 59, "{}", fast.dcache_misses);
        if let Some(profile) = &fast.stall_profile {
            assert!(
                profile
                    .producers
                    .keys()
                    .any(|&(_, label)| label == slot_word),
                "RAW stalls name the slot load: {:?}",
                profile.producers
            );
        }
        assert_outcomes_agree(Ok(fast), Ok(refr), "fused slot");
    }
}
