//! End-to-end equivalence gates for the optimizing translation tier
//! (DESIGN.md §4.4) and the metapool lookup switch (DESIGN.md §4.1).
//!
//! The contract under test: turning the optimizations on must be
//! *observationally invisible* — same results, same instruction counts,
//! same check outcomes — and only the documented cycle fields may move
//! (`VmStats::equivalence_key` zeroes exactly those). Three angles:
//!
//! * **generated programs** — random dependent-arithmetic chains and
//!   counted loops (the shapes the fusion pass targets) run at
//!   `opt_level` 0 vs 2 on both flat-translating kernel kinds;
//! * **the real kernel** — a syscall workload on the safety-checked
//!   kernel, opt 0 vs 2 and range index vs splay baseline;
//! * **fault-injection replays** — the faultcamp seed grid re-run at both
//!   opt levels must produce byte-identical outcomes and stats, so fusion
//!   cannot perturb violation recovery.

use std::sync::Arc;

use proptest::prelude::*;

use sva::inject::{FaultClass, FaultPlan};
use sva::ir::parse::parse_module;
use sva::kernel::harness::{boot_user, make_vm_cfg, make_vm_recovering, pack_arg};
use sva::vm::{KernelKind, Vm, VmConfig, VmExit};

/// A counted loop with a dependent multiply-add-xor body: the `%t` and
/// `%done` temporaries are single-use, so the optimizing tier rewrites the
/// body into `FusedBin2` + `FusedCmpBr` superinstructions.
fn loop_prog(trip: u64, mul: u64, add: u64, xor: u64) -> String {
    format!(
        r#"
module "m"
func public @work(%n0: i64) : i64 {{
entry:
  br loop
loop:
  %i:i64 = phi i64 [entry: 0:i64, body: %i2]
  %acc:i64 = phi i64 [entry: %n0, body: %acc3]
  %done:i1 = icmp uge %i, {trip}:i64
  condbr %done, out, body
body:
  %t:i64 = mul %acc, {mul}:i64
  %acc2:i64 = add %t, {add}:i64
  %acc3:i64 = xor %acc2, {xor}:i64
  %i2:i64 = add %i, 1:i64
  br loop
out:
  ret %acc
}}
"#
    )
}

/// A straight-line chain `%v{k+1} = op %v{k}, c` — every intermediate has
/// exactly one use, so adjacent pairs fuse into `FusedBin2`.
fn chain_prog(ops: &[(u8, u64)]) -> String {
    let mut body = String::new();
    for (k, (op, c)) in ops.iter().enumerate() {
        let name = ["add", "sub", "mul", "and", "or", "xor", "shl"][*op as usize % 7];
        body.push_str(&format!("  %v{}:i64 = {name} %v{k}, {c}:i64\n", k + 1));
    }
    format!(
        "module \"m\"\nfunc public @work(%v0: i64) : i64 {{\nentry:\n{body}  ret %v{}\n}}\n",
        ops.len()
    )
}

/// Runs `@work(arg)` from `src` at the given opt level and returns the
/// exit, the stats block and how many superinstruction sites were
/// installed.
fn run_at(src: &str, kind: KernelKind, opt_level: u8, arg: u64) -> (VmExit, sva::vm::VmStats, u32) {
    let m = parse_module(src).unwrap();
    let mut vm = Vm::new(
        m,
        VmConfig {
            kind,
            opt_level,
            ..Default::default()
        },
    )
    .unwrap();
    let exit = vm.call("work", &[arg]).unwrap();
    (exit, vm.stats(), vm.fused_sites())
}

fn assert_opt_invisible(src: &str, arg: u64, expect_fusion: bool) {
    for kind in [KernelKind::Native, KernelKind::SvaLlvm] {
        let (r0, s0, f0) = run_at(src, kind, 0, arg);
        let (r2, s2, f2) = run_at(src, kind, 2, arg);
        assert_eq!(f0, 0, "{kind:?}: opt 0 must not fuse");
        assert_eq!(r0, r2, "{kind:?}: fusion changed the result");
        assert_eq!(
            s0.equivalence_key(),
            s2.equivalence_key(),
            "{kind:?}: fusion changed an observable stat"
        );
        // Exactly one dispatch cycle saved per fused dispatch — no more,
        // no less.
        assert_eq!(
            s0.cycles - s2.cycles,
            s2.fused_execs,
            "{kind:?}: cycle accounting drifted"
        );
        if expect_fusion {
            assert!(f2 > 0, "{kind:?}: expected superinstruction sites");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn loop_programs_agree_across_opt_levels(
        trip in 0u64..96,
        mul in 1u64..1_000_000,
        add in any::<u32>(),
        xor in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let src = loop_prog(trip, mul, add as u64, xor as u64);
        assert_opt_invisible(&src, seed, true);
    }

    #[test]
    fn chain_programs_agree_across_opt_levels(
        ops in prop::collection::vec((0u8..7, 0u64..1_000_000), 2..24),
        seed in any::<u64>(),
    ) {
        let src = chain_prog(&ops);
        assert_opt_invisible(&src, seed, true);
    }
}

/// Syscall workloads on the real safety-checked kernel: fusion must not
/// change the exit code, the instruction count, or any check counter.
#[test]
fn kernel_workloads_agree_across_opt_levels() {
    for (prog, iters, size) in [("user_getpid_loop", 50, 0), ("user_write_loop", 20, 64)] {
        let run = |opt_level: u8| {
            let mut vm = make_vm_cfg(VmConfig {
                kind: KernelKind::SvaSafe,
                opt_level,
                ..Default::default()
            });
            let exit = boot_user(&mut vm, prog, pack_arg(iters, size, 0)).unwrap();
            (exit, vm.stats(), vm.fused_sites())
        };
        let (r0, s0, _) = run(0);
        let (r2, s2, f2) = run(2);
        assert_eq!(r0, r2, "{prog}: fusion changed the exit");
        assert_eq!(
            s0.equivalence_key(),
            s2.equivalence_key(),
            "{prog}: fusion changed an observable stat"
        );
        assert_eq!(s0.cycles - s2.cycles, s2.fused_execs, "{prog}");
        assert!(f2 > 0, "{prog}: kernel should have fusible sites");
    }
}

/// The checked-kernel triple rewrite (DESIGN.md §4.4): on the sva-safe
/// kernel the fusion pass swallows a metapool check *between* address
/// formation and the load (`Gep + pchk + Load → FusedGepChkLoad`).
/// Pointer-heavy syscall workloads must install triple sites, and the
/// fused check must be the standalone intrinsic hit-for-hit: same exit,
/// same equivalence key, and the identical split across every lookup
/// layer (singleton / MRU / page index / splay tree).
#[test]
fn kernel_gep_chk_load_triples_fuse_and_agree() {
    for (prog, iters, size) in [("user_openclose_loop", 30, 0), ("user_write_loop", 20, 64)] {
        let run = |opt_level: u8| {
            let mut vm = make_vm_cfg(VmConfig {
                kind: KernelKind::SvaSafe,
                opt_level,
                ..Default::default()
            });
            let exit = boot_user(&mut vm, prog, pack_arg(iters, size, 0)).unwrap();
            (exit, vm.stats(), vm.fused_chk_sites())
        };
        let (r0, s0, t0) = run(0);
        let (r2, s2, t2) = run(2);
        assert_eq!(t0, 0, "{prog}: opt 0 must not install triples");
        assert!(t2 > 0, "{prog}: sva-safe should fuse gep+pchk+load triples");
        assert_eq!(r0, r2, "{prog}: triple fusion changed the exit");
        assert_eq!(
            s0.equivalence_key(),
            s2.equivalence_key(),
            "{prog}: triple fusion changed an observable stat"
        );
        assert_eq!(
            (
                s0.singleton_hits,
                s0.cache_hits,
                s0.page_hits,
                s0.tree_walks
            ),
            (
                s2.singleton_hits,
                s2.cache_hits,
                s2.page_hits,
                s2.tree_walks
            ),
            "{prog}: the fused check moved a lookup between layers"
        );
        assert_eq!(s0.cycles - s2.cycles, s2.fused_execs, "{prog}");
    }
}

/// The lookup switch: the range index behind its singleton test and MRU
/// against the paper's splay baseline. The layer split moves — every
/// baseline lookup is a tree walk — but the total lookup count, the
/// cycle count, the instruction count and the exit must be identical.
#[test]
fn kernel_workloads_agree_across_lookup_switch() {
    let run = |fast_path: bool| {
        let mut vm = make_vm_cfg(VmConfig {
            kind: KernelKind::SvaSafe,
            fast_path,
            ..Default::default()
        });
        let exit = boot_user(&mut vm, "user_openclose_loop", pack_arg(30, 0, 0)).unwrap();
        let s = vm.stats();
        let lookups = s.singleton_hits + s.cache_hits + s.page_hits + s.tree_walks;
        (exit, s, lookups)
    };
    let (r_fast, s_fast, lookups_fast) = run(true);
    let (r_base, s_base, lookups_base) = run(false);
    assert_eq!(r_fast, r_base);
    assert_eq!(s_fast.cycles, s_base.cycles);
    assert_eq!(s_fast.instructions, s_base.instructions);
    assert_eq!(
        lookups_fast, lookups_base,
        "the switch changed the lookup count"
    );
    assert!(lookups_base > 0);
    assert_eq!(
        s_base.tree_walks, lookups_base,
        "a baseline lookup skipped the tree"
    );
    assert_eq!(s_fast.tree_walks, 0);
}

/// Metapool ids with complete points-to info in the recovery kernel (the
/// probe targets faultcamp uses).
fn complete_pools() -> Vec<u32> {
    let vm = make_vm_recovering(VmConfig::default());
    (0..vm.pools.len() as u32)
        .filter(|&i| vm.pools.pool(sva::rt::MetaPoolId(i)).complete)
        .collect()
}

/// The faultcamp seed grid replayed at both opt levels: deterministic
/// injection plus behavior-preserving fusion means byte-identical
/// outcomes, injected-fault counts and (cycle-projected) stats.
/// `IrqStorm` is excluded: interrupt delivery may land one op later inside
/// a fused pair, which is a documented, accepted boundary shift.
#[test]
fn faultcamp_seeds_agree_across_opt_levels() {
    let targets = complete_pools();
    let classes = [
        FaultClass::WildPtr,
        FaultClass::GepSkew,
        FaultClass::StaleUse,
        FaultClass::PoolMetaCorrupt,
        FaultClass::AllocFail,
    ];
    for class in classes {
        for seed in [1u64, 2, 3, 5, 8, 13] {
            let run = |opt_level: u8| {
                let plan = Arc::new(FaultPlan::new(class, seed, 2, targets.clone()));
                let cfg = VmConfig {
                    fuel: 10_000_000,
                    violation_budget: 3,
                    fault_hook: Some(plan.clone()),
                    opt_level,
                    ..Default::default()
                };
                let mut vm = make_vm_recovering(cfg);
                let r = boot_user(&mut vm, "user_openclose_loop", pack_arg(40, 0, 0));
                (
                    format!("{r:?}"),
                    plan.injected(),
                    vm.stats().equivalence_key(),
                )
            };
            let base = run(0);
            let opt = run(2);
            assert_eq!(base, opt, "{class:?} seed {seed} diverged under fusion");
        }
    }
}
