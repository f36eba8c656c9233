//! End-to-end pipeline tests across crates: textual bytecode → safety
//! compiler → verifier → SVM, plus the trust-boundary behaviors the paper
//! specifies (signed bytecode, rejected tampering, check semantics).

use sva::analysis::AnalysisConfig;
use sva::core::compile::{compile, CompileOptions};
use sva::core::verifier::{typecheck_module, verify_and_insert_checks};
use sva::ir::bytecode::{decode_module, encode_module, SignedModule};
use sva::ir::parse::parse_module;
use sva::vm::{KernelKind, Vm, VmConfig, VmError, VmExit};

const ALLOC_PRELUDE: &str = r#"
global @brk : i64 = bytes x0000201000000000
func public @kmalloc(%sz: i64) : i8* {
entry:
  %cur:i64 = load @brk
  %new:i64 = add %cur, %sz
  store %new, @brk
  %p:i8* = cast inttoptr %cur to i8*
  ret %p
}
func public @kfree(%p: i8*) : void {
entry:
  ret
}
allocator ordinary "kmalloc" alloc=@kmalloc dealloc=@kfree size=arg0
"#;

fn build(src: &str) -> sva::ir::Module {
    let full = format!("module \"t\"\n{ALLOC_PRELUDE}\n{src}");
    let m = parse_module(&full).expect("parse");
    let errs = sva::ir::verify::verify_module(&m);
    assert!(errs.is_empty(), "{errs:?}");
    m
}

fn safe_vm(src: &str) -> Vm {
    let m = build(src);
    let compiled = compile(m, &AnalysisConfig::kernel(), &CompileOptions::default());
    let verified = verify_and_insert_checks(compiled.module).expect("verifies");
    Vm::new(
        verified.module,
        VmConfig {
            kind: KernelKind::SvaSafe,
            ..Default::default()
        },
    )
    .expect("load")
}

#[test]
fn overflow_caught_exactly_at_boundary() {
    let mut vm = safe_vm(
        r#"
func public @poke(%idx: i64) : i64 {
entry:
  %buf:i8* = call @kmalloc(32:i64)
  %slot:i8* = gep %buf [%idx]
  store 1:i8, %slot
  ret 0:i64
}
"#,
    );
    // Indices 0..31 are fine.
    for idx in [0u64, 15, 31] {
        assert_eq!(
            vm.call("poke", &[idx]).unwrap(),
            VmExit::Returned(0),
            "idx {idx}"
        );
    }
    // 32 (one past the end) is a *store*, so the bounds check must fire.
    let err = vm.call("poke", &[32]).unwrap_err();
    assert!(matches!(err, VmError::Safety(_)), "{err}");
}

#[test]
fn double_free_detected_t5() {
    let mut vm = safe_vm(
        r#"
func public @df() : i64 {
entry:
  %buf:i8* = call @kmalloc(32:i64)
  call @kfree(%buf)
  call @kfree(%buf)
  ret 0:i64
}
"#,
    );
    let err = vm.call("df", &[]).unwrap_err();
    match err {
        VmError::Safety(e) => assert_eq!(e.kind, sva::rt::CheckKind::IllegalFree),
        other => panic!("expected illegal free, got {other}"),
    }
}

#[test]
fn interior_free_detected_t5() {
    let mut vm = safe_vm(
        r#"
func public @intfree() : i64 {
entry:
  %buf:i8* = call @kmalloc(32:i64)
  %mid:i8* = gep %buf [8:i64]
  call @kfree(%mid)
  ret 0:i64
}
"#,
    );
    let err = vm.call("intfree", &[]).unwrap_err();
    match err {
        VmError::Safety(e) => assert_eq!(e.kind, sva::rt::CheckKind::IllegalFree),
        other => panic!("expected illegal free, got {other}"),
    }
}

#[test]
fn dangling_pointer_is_harmless_within_pool() {
    // The paper's compromise: dangling pointers are not *detected*, but the
    // pool discipline keeps them harmless — the reallocated memory belongs
    // to the same metapool, so the stale pointer still lands on a legal
    // object of the same partition.
    let mut vm = safe_vm(
        r#"
func public @dangle() : i64 {
entry:
  %a:i8* = call @kmalloc(32:i64)
  store 7:i8, %a
  call @kfree(%a)
  %b:i8* = call @kmalloc(32:i64)
  ; `%a` is now dangling; the bump allocator reused fresh space, but the
  ; load must be *contained* — not a wild access.
  %v:i8 = load %b
  %r:i64 = cast zext %v to i64
  ret %r
}
"#,
    );
    let r = vm.call("dangle", &[]).unwrap();
    assert!(matches!(r, VmExit::Returned(_)));
}

#[test]
fn indirect_call_check_enforces_call_graph() {
    let mut vm = safe_vm(
        r#"
func internal @good1(%x: i64) : i64 {
entry:
  %r:i64 = add %x, 1:i64
  ret %r
}
func internal @good2(%x: i64) : i64 {
entry:
  %r:i64 = add %x, 2:i64
  ret %r
}
global @table : [2 x ((i64) -> i64)*] = bytes x00000000000000000000000000000000 relocs [0: @good1, 8: @good2]
func public @dispatch(%i: i64, %x: i64) : i64 {
entry:
  %slot:((i64) -> i64)** = gep @table [0:i32, %i]
  %fp:((i64) -> i64)* = load %slot
  %r:i64 = callind %fp(%x)
  ret %r
}
"#,
    );
    assert_eq!(vm.call("dispatch", &[0, 10]).unwrap(), VmExit::Returned(11));
    assert_eq!(vm.call("dispatch", &[1, 10]).unwrap(), VmExit::Returned(12));
    let stats = vm.pools.total_stats();
    assert!(stats.func_checks >= 2, "{stats:?}");
}

#[test]
fn signed_bytecode_round_trip_and_tamper() {
    let m = build(
        r#"
func public @f() : i64 {
entry:
  ret 11:i64
}
"#,
    );
    let sealed = SignedModule::seal(&m, 0xABCD);
    let reopened = sealed.open(0xABCD).expect("signature verifies");
    assert_eq!(reopened.funcs.len(), m.funcs.len());
    let mut bad = sealed.clone();
    let n = bad.bytecode.len();
    bad.bytecode[n / 3] ^= 0x40;
    assert!(
        bad.open(0xABCD).is_err(),
        "tampered bytecode must be rejected"
    );
}

#[test]
fn annotations_survive_bytecode_and_still_verify() {
    let m = build(
        r#"
func public @touch(%idx: i64) : i64 {
entry:
  %buf:i8* = call @kmalloc(64:i64)
  %slot:i8* = gep %buf [%idx]
  store 1:i8, %slot
  ret 0:i64
}
"#,
    );
    let compiled = compile(m, &AnalysisConfig::kernel(), &CompileOptions::default());
    // Ship over the wire as bytecode, then verify on the "end-user system".
    let bytes = encode_module(&compiled.module);
    let received = decode_module(&bytes).expect("decode");
    assert!(typecheck_module(&received).is_empty());
    let verified = verify_and_insert_checks(received).expect("verifies after transport");
    let mut vm = Vm::new(
        verified.module,
        VmConfig {
            kind: KernelKind::SvaSafe,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(matches!(vm.call("touch", &[63]), Ok(VmExit::Returned(0))));
    assert!(matches!(vm.call("touch", &[65]), Err(VmError::Safety(_))));
}

#[test]
fn tampered_annotations_rejected_by_verifier() {
    let m = build(
        r#"
func public @touch(%idx: i64) : i64 {
entry:
  %buf:i8* = call @kmalloc(64:i64)
  %slot:i8* = gep %buf [%idx]
  store 1:i8, %slot
  ret 0:i64
}
"#,
    );
    let compiled = compile(m, &AnalysisConfig::kernel(), &CompileOptions::default());
    for kind in sva::core::inject::FaultKind::ALL {
        let mut bad = compiled.module.clone();
        if sva::core::inject::inject_fault(&mut bad, kind, 0).is_some() {
            assert!(
                verify_and_insert_checks(bad).is_err(),
                "verifier must reject {kind:?}"
            );
        }
    }
}

/// Paper §5: the verifier rejects every one of the 20 injected analysis
/// bugs (5 seeds of each of the 4 kinds) against the entire-kernel build,
/// and the clean build still typechecks.
#[test]
fn verifier_rejects_all_twenty_injected_kernel_faults() {
    let cfg = AnalysisConfig::kernel_excluding(sva::kernel::ENTIRE_KERNEL_EXCLUSIONS);
    let base = compile(
        sva::kernel::harness::raw_kernel(),
        &cfg,
        &CompileOptions::default(),
    )
    .module;
    assert!(
        typecheck_module(&base).is_empty(),
        "clean kernel must typecheck"
    );
    let mut undetected = Vec::new();
    for kind in sva::core::inject::FaultKind::ALL {
        for seed in 0..5 {
            let mut m = base.clone();
            let desc = sva::core::inject::inject_fault(&mut m, kind, seed)
                .unwrap_or_else(|| panic!("{kind:?} seed {seed}: no injection point"));
            if typecheck_module(&m).is_empty() {
                undetected.push(format!("{kind:?} seed {seed}: {desc}"));
            }
        }
    }
    assert!(
        undetected.is_empty(),
        "{}/20 injections undetected: {undetected:#?}",
        undetected.len()
    );
}

#[test]
fn all_four_configs_agree_on_results() {
    // Differential test: the two code generators (and the checked build)
    // must compute identical values on a compute-heavy function.
    let src = r#"
func public @mix(%n: i64) : i64 {
entry:
  br loop
loop:
  %i:i64 = phi i64 [entry: 0:i64, loop: %i1]
  %acc:i64 = phi i64 [entry: 7:i64, loop: %acc2]
  %t:i64 = mul %acc, 1099511628211:i64
  %t8:i8 = cast trunc %i to i8
  %t64:i64 = cast zext %t8 to i64
  %acc2:i64 = xor %t, %t64
  %i1:i64 = add %i, 1:i64
  %done:i1 = icmp uge %i1, %n
  condbr %done, out, loop
out:
  ret %acc2
}
"#;
    let mut results = Vec::new();
    for kind in [KernelKind::Native, KernelKind::SvaGcc, KernelKind::SvaLlvm] {
        let m = build(src);
        let mut vm = Vm::new(
            m,
            VmConfig {
                kind,
                ..Default::default()
            },
        )
        .unwrap();
        results.push(vm.call("mix", &[1000]).unwrap());
    }
    // And the checked build.
    let mut vm = safe_vm(src);
    results.push(vm.call("mix", &[1000]).unwrap());
    assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
}

/// Applies `edit` to the operands of the first `i` call that `func`
/// executes in block order.
fn edit_first_call(
    m: &mut sva::ir::Module,
    func: &str,
    i: sva::ir::Intrinsic,
    edit: impl FnOnce(&mut Vec<sva::ir::Operand>),
) {
    use sva::ir::{Callee, Inst};
    let f = m.func_mut(m.func_by_name(func).expect("function"));
    let site = f.blocks.iter().flat_map(|b| &b.insts).find(|iid| {
        matches!(&f.insts[iid.0 as usize],
            Inst::Call { callee: Callee::Intrinsic(c), .. } if *c == i)
    });
    match site.map(|iid| &mut f.insts[iid.0 as usize]) {
        Some(Inst::Call { args, .. }) => edit(args),
        _ => panic!("@{func} calls no `{}`", i.name()),
    }
}

/// Rewrites a constant pool operand to metapool 99999, which no machine
/// has.
fn forge_pool(args: &mut [sva::ir::Operand]) {
    match args.first_mut() {
        Some(sva::ir::Operand::ConstInt(mp, _)) => *mp = 99_999,
        other => panic!("no constant pool operand: {other:?}"),
    }
}

/// A pool operand indexes the host's metapool table, so the SVM checks
/// each one once, at load. A module whose `pchk.lscheck` or
/// `pchk.reg.obj` names no metapool of the machine, or whose global pool
/// annotation names none, is refused with the function or global named,
/// instead of indexing past the table when it runs and panicking the
/// host; so is a check call short of an operand. A module without
/// annotations is refused as unverified.
#[test]
fn forged_pool_operands_are_refused_at_load() {
    use sva::ir::Intrinsic;
    use sva::kernel::harness::{boot_user, pack_arg, safe_kernel_module};
    let kernel = safe_kernel_module(sva::kernel::AS_TESTED_EXCLUSIONS);
    let entry = kernel.funcs[kernel.entry.expect("kernel entry").0 as usize]
        .name
        .clone();
    let mut lscheck = kernel.clone();
    edit_first_call(&mut lscheck, "fs_file_read", Intrinsic::LsCheck, |a| {
        forge_pool(a)
    });
    let mut reg_obj = kernel.clone();
    edit_first_call(&mut reg_obj, &entry, Intrinsic::PchkRegObj, |a| {
        forge_pool(a)
    });
    // A check call that lacks an operand is refused as well (it used to
    // read the missing one as 0).
    let mut short = kernel.clone();
    edit_first_call(&mut short, "fs_file_read", Intrinsic::BoundsCheck, |args| {
        args.pop();
    });
    // A module with its checks but without its annotations was never
    // verified: that is what a load says, before any operand is looked at.
    let mut unverified = kernel;
    unverified.pool_annotations = None;
    // Without a kernel entry the SVM registers each global with its
    // annotated pool at load.
    let small = build(
        r#"
func public @f() : i64 {
entry:
  %v:i64 = load @brk
  ret %v
}
"#,
    );
    let compiled = compile(small, &AnalysisConfig::kernel(), &CompileOptions::default());
    let mut global = verify_and_insert_checks(compiled.module)
        .expect("verifies")
        .module;
    global.pool_annotations.as_mut().unwrap().global_pools[0] = Some(99_999);

    let cases = [
        (lscheck, "@fs_file_read: `pchk.lscheck`", "user_fileread_bw"),
        (reg_obj, &*format!("@{entry}: `pchk.reg.obj`"), "user_hello"),
        (global, "global 0", ""),
        (
            short,
            "@fs_file_read: `pchk.bounds` wants 3",
            "user_fileread_bw",
        ),
    ];
    for opt_level in [0, 2] {
        for (m, want, prog) in &cases {
            let cfg = VmConfig {
                kind: KernelKind::SvaSafe,
                opt_level,
                ..Default::default()
            };
            let r = Vm::new(m.clone(), cfg).and_then(|mut vm| match *prog {
                "" => vm.call("f", &[]),
                prog => boot_user(&mut vm, prog, pack_arg(2, 4096, 0)),
            });
            match r {
                Err(VmError::Unsupported(msg)) if msg.starts_with(want) => {}
                other => panic!("opt {opt_level}: {want} must be refused at load: {other:?}"),
            }
        }
        let cfg = VmConfig {
            kind: KernelKind::SvaSafe,
            opt_level,
            ..Default::default()
        };
        let r = Vm::new(unverified.clone(), cfg);
        assert!(matches!(r, Err(VmError::NotVerified)), "opt {opt_level}");
    }
}
