//! # The optimizing translation tier (DESIGN.md §4.4)
//!
//! The baseline translator (`vm::translate`) emits exactly one flat op
//! per bytecode instruction. This module adds a second, optional tier: a
//! peephole **fusion pass** over the flat code that rewrites adjacent
//! dependent pairs into superinstructions. `VmConfig::opt_level` 0 keeps
//! the baseline tier; any other level fuses every function.
//!
//! ## Why fusion is safe here
//!
//! A fused pair is rewritten *in place*: the first op of the pair becomes
//! the superinstruction and the second becomes [`FlatOp::Nop`]. Op counts
//! and therefore every flat pc — block starts, pre-resolved branch
//! targets, frame pcs captured in interrupt contexts — stay valid with
//! zero remapping. Legality of a pair requires:
//!
//! 1. **Same block.** The second op must not be a block start (every
//!    block start immediately follows a terminator in the flat layout, so
//!    no branch can target the swallowed slot and the placeholder is
//!    unreachable).
//! 2. **Dead intermediate.** The register the first op defines is read
//!    exactly once in the whole function — by the second op. SSA slot
//!    assignment makes defs unique, so a whole-function use count of one
//!    proves nothing else (later block, phi, call argument) observes the
//!    intermediate value, and the fused handler may skip writing it.
//!
//! Fused handlers charge `VmStats::instructions` for the swallowed op but
//! not the dispatch cycle — instruction counts are invariant under fusion
//! while cycle counts drop; `VmStats::equivalence_key` masks exactly that
//! difference for the equivalence gates.
//!
//! Phi-to-mov rewriting rides along: a phi whose incomings all carry the
//! same value loads it unconditionally. (On a verified module every
//! executed phi has a matching predecessor, so dropping the
//! missing-predecessor error path is behavior-preserving.)

use std::collections::HashMap;

use crate::vm::{FlatCallee, FlatFunc, FlatOp, Src};

/// Whether `op` ends a basic block in the flat layout.
fn is_terminator(op: &FlatOp) -> bool {
    matches!(
        op,
        FlatOp::Br { .. }
            | FlatOp::CondBr { .. }
            | FlatOp::Switch { .. }
            | FlatOp::Ret { .. }
            | FlatOp::Unreachable
            | FlatOp::FusedCmpBr { .. }
    )
}

/// Whole-function count of register *reads* (every `Src::Reg` operand).
fn count_reg_uses(ops: &[FlatOp]) -> HashMap<u32, u32> {
    let mut uses: HashMap<u32, u32> = HashMap::new();
    let mut add = |s: &Src| {
        if let Src::Reg(r) = s {
            *uses.entry(*r).or_insert(0) += 1;
        }
    };
    for op in ops {
        match op {
            FlatOp::Bin { a, b, .. } | FlatOp::ICmp { a, b, .. } => {
                add(a);
                add(b);
            }
            FlatOp::Select { c, a, b, .. } => {
                add(c);
                add(a);
                add(b);
            }
            FlatOp::Cast { a, .. } => add(a),
            FlatOp::Gep { base, dynamic, .. } => {
                add(base);
                for (s, _, _) in dynamic {
                    add(s);
                }
            }
            FlatOp::Load { ptr, .. } => add(ptr),
            FlatOp::Store { val, ptr, .. } => {
                add(val);
                add(ptr);
            }
            FlatOp::Alloca { count, .. } => add(count),
            FlatOp::Call { callee, args, .. } => {
                if let FlatCallee::Indirect(s) = callee {
                    add(s);
                }
                for a in args {
                    add(a);
                }
            }
            FlatOp::LsCheck { addr, .. } => add(addr),
            FlatOp::BoundsCheck { src, addr, .. } => {
                add(src);
                add(addr);
            }
            FlatOp::RangeCheck { start, addr, end } => {
                add(start);
                add(addr);
                add(end);
            }
            FlatOp::Phi { incomings, .. } => {
                for (_, s) in incomings {
                    add(s);
                }
            }
            FlatOp::AtomicRmw { ptr, val, .. } => {
                add(ptr);
                add(val);
            }
            FlatOp::CmpXchg {
                ptr, expected, new, ..
            } => {
                add(ptr);
                add(expected);
                add(new);
            }
            FlatOp::CondBr { c, .. } => add(c),
            FlatOp::Switch { v, .. } => add(v),
            FlatOp::Ret { val } => {
                if let Some(s) = val {
                    add(s);
                }
            }
            FlatOp::Mov { src, .. } => add(src),
            FlatOp::FusedGepLoad { base, dynamic, .. } => {
                add(base);
                for (s, _, _) in dynamic {
                    add(s);
                }
            }
            FlatOp::FusedGepChkLoad {
                base,
                dynamic,
                chk_src,
                ..
            } => {
                add(base);
                for (s, _, _) in dynamic {
                    add(s);
                }
                if let Some(s) = chk_src {
                    add(s);
                }
            }
            FlatOp::FusedGepStore {
                val, base, dynamic, ..
            } => {
                add(val);
                add(base);
                for (s, _, _) in dynamic {
                    add(s);
                }
            }
            FlatOp::FusedCmpBr { a, b, .. } => {
                add(a);
                add(b);
            }
            FlatOp::FusedBin2 { a, b, c, .. } => {
                add(a);
                add(b);
                add(c);
            }
            FlatOp::Fence | FlatOp::Br { .. } | FlatOp::Unreachable | FlatOp::Nop => {}
        }
    }
    uses
}

/// Runs the fusion pass over one function's flat code in place. Returns
/// the number of sites rewritten (fused pairs plus phi-to-mov rewrites).
pub(crate) fn fuse_flat(ff: &mut FlatFunc) -> u32 {
    let n = ff.ops.len();
    let mut fused = 0u32;

    // Phi → mov: all incomings carry the same value.
    for op in ff.ops.iter_mut() {
        if let FlatOp::Phi { dst, incomings } = op {
            if let Some((_, first)) = incomings.first() {
                let first = *first;
                if incomings.iter().all(|(_, s)| *s == first) {
                    *op = FlatOp::Mov {
                        dst: *dst,
                        src: first,
                    };
                    fused += 1;
                }
            }
        }
    }

    if n < 2 {
        return fused;
    }

    // Block starts: pc 0 and every op following a terminator (flat layout
    // is blocks laid out back to back, each ending in a terminator).
    let mut block_start = vec![false; n];
    block_start[0] = true;
    for (p, b) in block_start.iter_mut().enumerate().skip(1) {
        *b = is_terminator(&ff.ops[p - 1]);
    }

    let uses = count_reg_uses(&ff.ops);
    let single = |r: u32| uses.get(&r).copied().unwrap_or(0) == 1;

    let mut p = 0;
    while p + 1 < n {
        if block_start[p + 1] {
            p += 1;
            continue;
        }
        // Triple: gep + inserted pool check + load (checked kernels).
        // The address register has exactly *two* reads — the check
        // operand and the load pointer — so the pairwise single-use rule
        // stops at the check call; swallowing all three ops at once is
        // what makes the fused-GEP win reach sva-safe.
        if p + 2 < n && !block_start[p + 2] {
            let triple = match (&ff.ops[p], &ff.ops[p + 1], &ff.ops[p + 2]) {
                (
                    FlatOp::Gep {
                        dst,
                        base,
                        const_off,
                        dynamic,
                    },
                    chk,
                    FlatOp::Load {
                        dst: ld,
                        ptr: Src::Reg(lp),
                        w,
                    },
                ) if *lp == *dst && uses.get(dst).copied().unwrap_or(0) == 2 => {
                    let chk = match chk {
                        FlatOp::LsCheck {
                            mp,
                            addr: Src::Reg(a),
                        } if *a == *dst => Some((*mp, None)),
                        FlatOp::BoundsCheck {
                            mp,
                            src,
                            addr: Src::Reg(a),
                        } if *a == *dst => Some((*mp, Some(*src))),
                        _ => None,
                    };
                    chk.map(|(mp, chk_src)| FlatOp::FusedGepChkLoad {
                        dst: *ld,
                        base: *base,
                        const_off: *const_off,
                        dynamic: dynamic.clone(),
                        w: *w,
                        mp,
                        chk_src,
                    })
                }
                _ => None,
            };
            if let Some(r) = triple {
                ff.ops[p] = r;
                ff.ops[p + 1] = FlatOp::Nop;
                ff.ops[p + 2] = FlatOp::Nop;
                fused += 1;
                p += 3;
                continue;
            }
        }
        let replacement = match (&ff.ops[p], &ff.ops[p + 1]) {
            (
                FlatOp::Gep {
                    dst,
                    base,
                    const_off,
                    dynamic,
                },
                FlatOp::Load {
                    dst: ld,
                    ptr: Src::Reg(r),
                    w,
                },
            ) if *r == *dst && single(*dst) => Some(FlatOp::FusedGepLoad {
                dst: *ld,
                base: *base,
                const_off: *const_off,
                dynamic: dynamic.clone(),
                w: *w,
            }),
            (
                FlatOp::Gep {
                    dst,
                    base,
                    const_off,
                    dynamic,
                },
                FlatOp::Store {
                    val,
                    ptr: Src::Reg(r),
                    w,
                },
            ) if *r == *dst && single(*dst) => Some(FlatOp::FusedGepStore {
                val: *val,
                base: *base,
                const_off: *const_off,
                dynamic: dynamic.clone(),
                w: *w,
            }),
            (
                FlatOp::ICmp { pred, w, dst, a, b },
                FlatOp::CondBr {
                    c: Src::Reg(r),
                    tpc,
                    fpc,
                    from,
                },
            ) if *r == *dst && single(*dst) => Some(FlatOp::FusedCmpBr {
                pred: *pred,
                w: *w,
                a: *a,
                b: *b,
                tpc: *tpc,
                fpc: *fpc,
                from: *from,
            }),
            (
                FlatOp::Bin {
                    op: op1,
                    w: w1,
                    dst: t,
                    a,
                    b,
                },
                FlatOp::Bin {
                    op: op2,
                    w: w2,
                    dst,
                    a: a2,
                    b: b2,
                },
            ) if single(*t) && (*a2 == Src::Reg(*t) || *b2 == Src::Reg(*t)) => {
                let t_lhs = *a2 == Src::Reg(*t);
                let c = if t_lhs { *b2 } else { *a2 };
                Some(FlatOp::FusedBin2 {
                    op1: *op1,
                    w1: *w1,
                    a: *a,
                    b: *b,
                    op2: *op2,
                    w2: *w2,
                    c,
                    t_lhs,
                    dst: *dst,
                })
            }
            _ => None,
        };
        match replacement {
            Some(r) => {
                ff.ops[p] = r;
                ff.ops[p + 1] = FlatOp::Nop;
                fused += 1;
                p += 2;
            }
            None => p += 1,
        }
    }
    fused
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fusion_respects_block_boundaries_and_use_counts() {
        use sva_ir::IPred;
        // Block 0: icmp (pc 0) + condbr (pc 1) — fusible.
        // Block 1 (pc 2): icmp whose flag is ALSO returned — not fusible.
        // Block 2 (pc 4): ret.
        let ops = vec![
            FlatOp::ICmp {
                pred: IPred::Eq,
                w: 64,
                dst: 0,
                a: Src::Imm(1),
                b: Src::Imm(1),
            },
            FlatOp::CondBr {
                c: Src::Reg(0),
                tpc: 2,
                fpc: 4,
                from: 0,
            },
            FlatOp::ICmp {
                pred: IPred::Ne,
                w: 64,
                dst: 1,
                a: Src::Imm(0),
                b: Src::Imm(1),
            },
            FlatOp::CondBr {
                c: Src::Reg(1),
                tpc: 4,
                fpc: 4,
                from: 1,
            },
            FlatOp::Ret {
                val: Some(Src::Reg(1)),
            },
        ];
        let mut ff = FlatFunc { ops };
        let fused = fuse_flat(&mut ff);
        assert_eq!(fused, 1);
        assert!(matches!(ff.ops[0], FlatOp::FusedCmpBr { .. }));
        assert!(matches!(ff.ops[1], FlatOp::Nop));
        // Second icmp's flag has two uses — left alone.
        assert!(matches!(ff.ops[2], FlatOp::ICmp { .. }));
        assert!(matches!(ff.ops[3], FlatOp::CondBr { .. }));
    }

    #[test]
    fn fusion_never_crosses_a_block_start() {
        use sva_ir::BinOp;
        // bin (terminated block would be illegal IR; model a branch in
        // between): bin at pc 0 ends... here: bin, br, bin — the second
        // bin starts a block, so no Bin2 forms across the br; and the
        // (bin, br) pair matches no pattern.
        let ops = vec![
            FlatOp::Bin {
                op: BinOp::Add,
                w: 64,
                dst: 0,
                a: Src::Imm(1),
                b: Src::Imm(2),
            },
            FlatOp::Br { pc: 2, from: 0 },
            FlatOp::Bin {
                op: BinOp::Add,
                w: 64,
                dst: 1,
                a: Src::Reg(0),
                b: Src::Imm(3),
            },
            FlatOp::Ret {
                val: Some(Src::Reg(1)),
            },
        ];
        let mut ff = FlatFunc { ops };
        assert_eq!(fuse_flat(&mut ff), 0);
    }

    #[test]
    fn dependent_bin_pair_fuses_with_operand_side_tracked() {
        use sva_ir::BinOp;
        // t = 6 * 7; dst = 100 - t  (t on the rhs of the second op).
        let ops = vec![
            FlatOp::Bin {
                op: BinOp::Mul,
                w: 64,
                dst: 0,
                a: Src::Imm(6),
                b: Src::Imm(7),
            },
            FlatOp::Bin {
                op: BinOp::Sub,
                w: 64,
                dst: 1,
                a: Src::Imm(100),
                b: Src::Reg(0),
            },
            FlatOp::Ret {
                val: Some(Src::Reg(1)),
            },
        ];
        let mut ff = FlatFunc { ops };
        assert_eq!(fuse_flat(&mut ff), 1);
        match &ff.ops[0] {
            FlatOp::FusedBin2 { t_lhs, c, .. } => {
                assert!(!*t_lhs);
                assert_eq!(*c, Src::Imm(100));
            }
            other => panic!("expected FusedBin2, got {other:?}"),
        }
    }

    #[test]
    fn checked_gep_load_triple_fuses() {
        // gep t; pchk.lscheck(mp, t); load t — the address register has two
        // reads (check + load), both swallowed by the triple.
        let ops = vec![
            FlatOp::Gep {
                dst: 0,
                base: Src::Imm(0x1000),
                const_off: 8,
                dynamic: vec![],
            },
            FlatOp::LsCheck {
                mp: 3,
                addr: Src::Reg(0),
            },
            FlatOp::Load {
                dst: 1,
                ptr: Src::Reg(0),
                w: 8,
            },
            FlatOp::Ret {
                val: Some(Src::Reg(1)),
            },
        ];
        let mut ff = FlatFunc { ops };
        assert_eq!(fuse_flat(&mut ff), 1);
        match &ff.ops[0] {
            FlatOp::FusedGepChkLoad {
                dst, mp, chk_src, ..
            } => {
                assert_eq!(*dst, 1);
                assert_eq!(*mp, 3);
                assert!(chk_src.is_none());
            }
            other => panic!("expected FusedGepChkLoad, got {other:?}"),
        }
        assert!(matches!(ff.ops[1], FlatOp::Nop));
        assert!(matches!(ff.ops[2], FlatOp::Nop));
    }

    #[test]
    fn checked_gep_load_triple_fuses_bounds_variant() {
        // gep t = base+off; pchk.bounds(mp, base, t); load t.
        let ops = vec![
            FlatOp::Gep {
                dst: 1,
                base: Src::Reg(0),
                const_off: 16,
                dynamic: vec![],
            },
            FlatOp::BoundsCheck {
                mp: 2,
                src: Src::Reg(0),
                addr: Src::Reg(1),
            },
            FlatOp::Load {
                dst: 2,
                ptr: Src::Reg(1),
                w: 8,
            },
            FlatOp::Ret {
                val: Some(Src::Reg(2)),
            },
        ];
        let mut ff = FlatFunc { ops };
        assert_eq!(fuse_flat(&mut ff), 1);
        match &ff.ops[0] {
            FlatOp::FusedGepChkLoad { mp, chk_src, .. } => {
                assert_eq!(*mp, 2);
                assert_eq!(*chk_src, Some(Src::Reg(0)));
            }
            other => panic!("expected FusedGepChkLoad, got {other:?}"),
        }
    }

    #[test]
    fn checked_gep_load_triple_respects_extra_uses() {
        // The address register is ALSO returned — three uses, no fusion
        // (the intermediate is observable).
        let ops = vec![
            FlatOp::Gep {
                dst: 0,
                base: Src::Imm(0x1000),
                const_off: 0,
                dynamic: vec![],
            },
            FlatOp::LsCheck {
                mp: 0,
                addr: Src::Reg(0),
            },
            FlatOp::Load {
                dst: 1,
                ptr: Src::Reg(0),
                w: 8,
            },
            FlatOp::Ret {
                val: Some(Src::Reg(0)),
            },
        ];
        let mut ff = FlatFunc { ops };
        assert_eq!(fuse_flat(&mut ff), 0);
        assert!(matches!(ff.ops[0], FlatOp::Gep { .. }));
    }

    #[test]
    fn constant_phi_becomes_mov() {
        let ops = vec![
            FlatOp::Phi {
                dst: 0,
                incomings: vec![(0, Src::Imm(7)), (1, Src::Imm(7))],
            },
            FlatOp::Phi {
                dst: 1,
                incomings: vec![(0, Src::Imm(7)), (1, Src::Imm(8))],
            },
            FlatOp::Ret {
                val: Some(Src::Reg(0)),
            },
        ];
        let mut ff = FlatFunc { ops };
        assert_eq!(fuse_flat(&mut ff), 1);
        assert!(matches!(
            ff.ops[0],
            FlatOp::Mov {
                dst: 0,
                src: Src::Imm(7)
            }
        ));
        assert!(matches!(ff.ops[1], FlatOp::Phi { .. }));
    }
}
