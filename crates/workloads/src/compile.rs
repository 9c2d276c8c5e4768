//! The stand-in for Sun's optimizing compiler back end (`-xO4
//! -xchip=…`): schedules each generated block body for the target
//! machine, then improves it further with a steady-state local search.
//!
//! The paper's Table 1 depends on the original binaries being *better
//! scheduled than EEL can manage*: Sun's compiler scheduled the SPECfp
//! loops so well that EEL's one-shot local list scheduling loses
//! ground when it reschedules them. To reproduce that gap this pass
//! goes beyond `eel-core`'s scheduler: after list scheduling it
//! improves the order against the *steady-state* cost of the block —
//! the issue latency of three back-to-back repetitions, modeling a
//! loop body running iteration after iteration. EEL's per-block
//! scheduler starts from an empty pipeline every time and cannot see
//! that context, so rescheduling such code tends to hurt (the paper's
//! "de-scheduling").
//!
//! The search is cheap without changing one decision. Its conflict
//! relation comes from one [`DepGraph`] per body, which is exact
//! because the graph decides each edge from its two end nodes alone.
//! Each candidate order is costed from prepared instructions on one
//! reused [`PipelineState`] that stops as soon as the candidate cannot
//! win, which is exact because in-order issue cycles never decrease.
//! `tests/optimized_digests.rs` pins the resulting bytes.

use eel_core::{DepGraph, Scheduler};
use eel_edit::{BlockCode, Tagged};
use eel_pipeline::{MachineModel, PipelineState, PreparedInsn};
use eel_sparc::Instruction;
use eel_telemetry::Sink;

/// Steady-state cost of `body` in the order `perm`: the issue latency
/// of three back-to-back repetitions (approximating a loop's repeating
/// context), from prepared instructions on `pipe` after a reset. The
/// result is exact if it is below `bound`, and otherwise some value
/// `>= bound`: in-order issue cycles never decrease, so once the
/// partial latency reaches `bound` the full one would too, and the
/// evaluation stops there.
fn bounded_steady_cost(
    model: &MachineModel,
    body: &[(Instruction, PreparedInsn)],
    pipe: &mut PipelineState,
    perm: &[usize],
    bound: u64,
) -> u64 {
    pipe.reset();
    let mut latency = 0;
    for &k in perm.iter().cycle().take(3 * perm.len()) {
        let (insn, p) = &body[k];
        latency = pipe.issue_prepared(model, insn, p).cycle + 1;
        if latency >= bound {
            break;
        }
    }
    latency
}

/// Pairwise dependence relation over the body, by *original index*,
/// as a flat `n×n` matrix: a reordering is legal iff every dependent
/// pair keeps its original relative order. [`DepGraph::build`] decides
/// each edge from its two end nodes alone, so one graph over the body
/// holds exactly the pairs a graph of each pair would.
fn conflict_matrix(model: &MachineModel, body: &[Tagged]) -> Vec<bool> {
    let n = body.len();
    let mut m = vec![false; n * n];
    for e in &DepGraph::build(model, body, true).edges {
        m[e.from * n + e.to] = true;
        m[e.to * n + e.from] = true;
    }
    m
}

/// How far the local search slides an instruction per move.
const MOVE_WINDOW: usize = 6;
const MAX_ROUNDS: usize = 4;

/// The local search over orders of `n` instructions, tracked by
/// original index so legality checks stay valid after moves. A slide
/// is kept only if `cost(order, incumbent)` comes in below the
/// incumbent, so `cost` need only be exact below its bound. Returns
/// the final order, the number of costs evaluated, and the number of
/// slides kept.
fn search(
    n: usize,
    conflicts: &[bool],
    mut cost: impl FnMut(&[usize], u64) -> u64,
) -> (Vec<usize>, u64, u64) {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best = cost(&perm, u64::MAX);
    let (mut evals, mut moves) = (1, 0);

    let legal_slide = |perm: &[usize], from: usize, to: usize| -> bool {
        // Slide the element at `from` to position `to`, shifting the
        // in-between elements; legal iff it conflicts with none of them.
        let x = perm[from];
        let (lo, hi) = if from < to {
            (from + 1, to)
        } else {
            (to, from - 1)
        };
        perm[lo..=hi].iter().all(|&y| !conflicts[x * n + y])
    };

    let mut improved = true;
    let mut rounds = 0;
    while improved && rounds < MAX_ROUNDS {
        improved = false;
        rounds += 1;
        for from in 0..n {
            let lo = from.saturating_sub(MOVE_WINDOW);
            let hi = (from + MOVE_WINDOW).min(n - 1);
            for to in lo..=hi {
                if to == from || !legal_slide(&perm, from, to) {
                    continue;
                }
                let x = perm.remove(from);
                perm.insert(to, x);
                let c = cost(&perm, best);
                evals += 1;
                if c < best {
                    best = c;
                    moves += 1;
                    improved = true;
                } else {
                    let x = perm.remove(to);
                    perm.insert(from, x);
                }
            }
        }
    }
    (perm, evals, moves)
}

/// Schedules and then locally improves a block body for `model`.
pub fn optimize_block(model: &MachineModel, body: Vec<Instruction>) -> Vec<Instruction> {
    optimize_block_with(model, body, &())
}

/// [`optimize_block`], counting its work on `sink`: `compile.blocks`
/// (bodies searched, those longer than two instructions),
/// `compile.evals` (steady-state costs evaluated) and `compile.moves`
/// (slides kept). The output does not depend on the sink.
pub fn optimize_block_with<S: Sink>(
    model: &MachineModel,
    body: Vec<Instruction>,
    sink: &S,
) -> Vec<Instruction> {
    if body.len() <= 1 {
        return body;
    }
    // First, ordinary list scheduling (everything is "original" code).
    let body = body.into_iter().map(Tagged::original).collect();
    let code = BlockCode { body, tail: vec![] };
    let scheduled = Scheduler::new(model.clone()).schedule_block(code).body;
    let insns: Vec<Instruction> = scheduled.iter().map(|t| t.insn).collect();

    let n = insns.len();
    if n <= 2 {
        return insns;
    }
    let conflicts = conflict_matrix(model, &scheduled);
    let prepared: Vec<_> = insns.iter().map(|&i| (i, model.prepare(&i))).collect();
    let mut pipe = PipelineState::new(model);
    let (perm, evals, moves) = search(n, &conflicts, |perm, bound| {
        bounded_steady_cost(model, &prepared, &mut pipe, perm, bound)
    });
    sink.add("compile.blocks", 1);
    sink.add("compile.evals", evals);
    sink.add("compile.moves", moves);
    perm.iter().map(|&k| insns[k]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Gen;
    use crate::GenShape;
    use eel_pipeline::evaluate_block;
    use eel_sparc::{Address, AluOp, FpOp, FpReg, IntReg, MemWidth, Operand};
    use proptest::prelude::*;

    fn add(rs1: IntReg, rd: IntReg) -> Instruction {
        Instruction::Alu {
            op: AluOp::Add,
            rs1,
            src2: Operand::imm(1),
            rd,
        }
    }

    fn ld(off: i32, rd: IntReg) -> Instruction {
        Instruction::Load {
            width: MemWidth::Word,
            addr: Address::base_imm(IntReg::L1, off),
            rd,
        }
    }

    fn faddd(a: u8, b: u8, d: u8) -> Instruction {
        Instruction::Fp {
            op: FpOp::FAddD,
            rs1: FpReg::new(a),
            rs2: FpReg::new(b),
            rd: FpReg::new(d),
        }
    }

    /// The unbounded steady-state cost, from scratch: the oracle the
    /// bounded evaluator must agree with.
    fn steady_cost(model: &MachineModel, body: &[Instruction]) -> u64 {
        let mut repeated = Vec::with_capacity(body.len() * 3);
        for _ in 0..3 {
            repeated.extend_from_slice(body);
        }
        evaluate_block(model, &repeated).issue_latency()
    }

    /// The conflict relation from one two-instruction graph per pair:
    /// the oracle the one-graph relation must agree with.
    fn pairwise_conflicts(model: &MachineModel, body: &[Instruction]) -> Vec<bool> {
        let n = body.len();
        let mut m = vec![false; n * n];
        for i in 0..n {
            for j in i + 1..n {
                let pair = [Tagged::original(body[i]), Tagged::original(body[j])];
                if !DepGraph::build(model, &pair, true).edges.is_empty() {
                    m[i * n + j] = true;
                    m[j * n + i] = true;
                }
            }
        }
        m
    }

    /// A random body: the generator's own instructions (what the
    /// compiler sees), mixed with arbitrary ALU, FP and memory words
    /// (the `| 0x8000_0000` selects SPARC format 2 or 3).
    fn random_body(seed: u64, fp_tenths: u8, words: &[Option<u32>]) -> Vec<Instruction> {
        let mut gen = Gen::new(seed, f64::from(fp_tenths) / 10.0, GenShape::default());
        words
            .iter()
            .map(|w| match w {
                Some(w) => Instruction::decode(w | 0x8000_0000),
                None => gen.body_insn(),
            })
            .collect()
    }

    /// The order `0..n` rotated by `r`, with its first and last entries
    /// swapped: a cheap order other than the identity.
    fn scrambled(n: usize, r: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).map(|k| (k + r) % n).collect();
        perm.swap(0, n - 1);
        perm
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn one_graph_conflicts_match_pairwise_graphs(
            seed in any::<u64>(),
            fp_tenths in 0u8..=10,
            words in prop::collection::vec(prop::option::of(any::<u32>()), 1..24),
        ) {
            let body = random_body(seed, fp_tenths, &words);
            let tagged: Vec<Tagged> = body.iter().copied().map(Tagged::original).collect();
            for model in MachineModel::shipped() {
                prop_assert_eq!(
                    conflict_matrix(&model, &tagged),
                    pairwise_conflicts(&model, &body),
                    "on {}", model.name()
                );
            }
        }

        #[test]
        fn bounded_cost_matches_evaluate_block(
            seed in any::<u64>(),
            fp_tenths in 0u8..=10,
            words in prop::collection::vec(prop::option::of(any::<u32>()), 1..20),
            r in 0usize..20,
            cut in any::<u64>(),
        ) {
            let body = random_body(seed, fp_tenths, &words);
            let n = body.len();
            for model in MachineModel::shipped() {
                let prepared: Vec<_> = body.iter().map(|&i| (i, model.prepare(&i))).collect();
                let mut pipe = PipelineState::new(&model);
                let mut bounded = |perm: &[usize], bound| {
                    bounded_steady_cost(&model, &prepared, &mut pipe, perm, bound)
                };
                for perm in [(0..n).collect::<Vec<_>>(), scrambled(n, r % n)] {
                    let order: Vec<Instruction> = perm.iter().map(|&k| body[k]).collect();
                    let exact = steady_cost(&model, &order);
                    prop_assert_eq!(bounded(&perm, u64::MAX), exact, "on {}", model.name());
                    for bound in [0, 1, exact - 1, exact, exact + 1, cut % (2 * exact + 2)] {
                        let c = bounded(&perm, bound);
                        prop_assert_eq!(
                            c < bound,
                            exact < bound,
                            "bound {} on {}", bound, model.name()
                        );
                        if c < bound {
                            prop_assert_eq!(c, exact);
                        }
                    }
                }
            }
        }

        /// The bound only shortens evaluations: the search makes the
        /// same moves, in the same number of evaluations, as it does
        /// with the unbounded oracle.
        #[test]
        fn bounded_search_matches_unbounded_search(
            seed in any::<u64>(),
            fp_tenths in 0u8..=10,
            words in prop::collection::vec(prop::option::of(any::<u32>()), 3..16),
        ) {
            let body = random_body(seed, fp_tenths, &words);
            let tagged: Vec<Tagged> = body.iter().copied().map(Tagged::original).collect();
            for model in MachineModel::shipped() {
                let conflicts = conflict_matrix(&model, &tagged);
                let prepared: Vec<_> = body.iter().map(|&i| (i, model.prepare(&i))).collect();
                let mut pipe = PipelineState::new(&model);
                let fast = search(body.len(), &conflicts, |perm, bound| {
                    bounded_steady_cost(&model, &prepared, &mut pipe, perm, bound)
                });
                let oracle = search(body.len(), &conflicts, |perm, _| {
                    let order: Vec<Instruction> = perm.iter().map(|&k| body[k]).collect();
                    steady_cost(&model, &order)
                });
                prop_assert_eq!(fast, oracle, "on {}", model.name());
            }
        }
    }

    #[test]
    fn optimization_never_regresses_steady_cost() {
        let model = MachineModel::ultrasparc();
        let body = vec![
            ld(0, IntReg::O0),
            add(IntReg::O0, IntReg::O1),
            ld(4, IntReg::O2),
            add(IntReg::O2, IntReg::O3),
            add(IntReg::O4, IntReg::O5),
        ];
        let before = steady_cost(&model, &body);
        let out = optimize_block(&model, body.clone());
        let after = steady_cost(&model, &out);
        assert!(after <= before, "{after} > {before}");
        assert_eq!(out.len(), body.len());
    }

    #[test]
    fn optimization_preserves_the_multiset() {
        let model = MachineModel::supersparc();
        let body = vec![
            ld(0, IntReg::O0),
            add(IntReg::O0, IntReg::O1),
            faddd(0, 2, 4),
            add(IntReg::O3, IntReg::O4),
            faddd(4, 6, 8),
            ld(8, IntReg::O5),
        ];
        let mut expect = body.clone();
        let mut out = optimize_block(&model, body);
        expect.sort_by_key(|i| i.encode());
        out.sort_by_key(|i| i.encode());
        assert_eq!(out, expect);
    }

    #[test]
    fn dependent_chain_keeps_order() {
        let model = MachineModel::ultrasparc();
        let body = vec![
            add(IntReg::O0, IntReg::O1),
            add(IntReg::O1, IntReg::O2),
            add(IntReg::O2, IntReg::O3),
        ];
        let out = optimize_block(&model, body.clone());
        assert_eq!(out, body, "a pure chain admits no reordering");
    }

    #[test]
    fn dependences_respected_after_moves() {
        let model = MachineModel::ultrasparc();
        let body = vec![
            ld(0, IntReg::O0),
            add(IntReg::O0, IntReg::O1),
            faddd(0, 2, 4),
            ld(4, IntReg::O2),
            add(IntReg::O2, IntReg::O3),
            faddd(4, 6, 8),
            add(IntReg::O1, IntReg::O4),
        ];
        let out = optimize_block(&model, body.clone());
        // Every dependent pair of the original keeps its order.
        let tagged: Vec<Tagged> = body.iter().copied().map(Tagged::original).collect();
        let graph = DepGraph::build(&model, &tagged, true);
        let pos = |i: Instruction| out.iter().position(|&o| o == i).unwrap();
        for e in &graph.edges {
            if body[e.from] != body[e.to] {
                assert!(pos(body[e.from]) < pos(body[e.to]), "violated {:?}", e);
            }
        }
    }

    #[test]
    fn tiny_bodies_pass_through() {
        let model = MachineModel::hypersparc();
        assert!(optimize_block(&model, vec![]).is_empty());
        let one = vec![add(IntReg::O0, IntReg::O1)];
        assert_eq!(optimize_block(&model, one.clone()), one);
    }
}
