//! End-to-end tests of the SVM: both engines, SVA-OS operations, traps,
//! context switching and the safety-check integration.

use sva_analysis::AnalysisConfig;
use sva_core::compile::{compile, CompileOptions};
use sva_core::verifier::verify_and_insert_checks;
use sva_ir::parse::parse_module;
use sva_ir::Module;

use sva_rt::CheckStats;
use sva_trace::MetricsRegistry;

use crate::mem::Mode;
use crate::vm::{KernelKind, Vm, VmConfig, VmError, VmExit, VmStats};

fn vm_for(src: &str, kind: KernelKind) -> Vm {
    let m = parse_module(src).expect("parse");
    let errs = sva_ir::verify::verify_module(&m);
    assert!(errs.is_empty(), "{errs:?}");
    Vm::new(
        m,
        VmConfig {
            kind,
            ..Default::default()
        },
    )
    .expect("load")
}

fn run_all_kinds(src: &str, func: &str, args: &[u64], expect: u64) {
    for kind in [KernelKind::Native, KernelKind::SvaGcc, KernelKind::SvaLlvm] {
        let mut vm = vm_for(src, kind);
        let r = vm
            .call(func, args)
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_eq!(r, VmExit::Returned(expect), "{kind:?}");
    }
}

#[test]
fn arithmetic_and_branches() {
    let src = r#"
module "m"
func public @collatz_len(%n0: i64) : i64 {
entry:
  br loop
loop:
  %n:i64 = phi i64 [entry: %n0, odd: %n3, even: %half]
  %len:i64 = phi i64 [entry: 0:i64, odd: %len2, even: %len3]
  %is1:i1 = icmp eq %n, 1:i64
  condbr %is1, out, step
step:
  %bit:i64 = and %n, 1:i64
  %isodd:i1 = icmp eq %bit, 1:i64
  condbr %isodd, odd, even
odd:
  %t:i64 = mul %n, 3:i64
  %n3:i64 = add %t, 1:i64
  %len2:i64 = add %len, 1:i64
  br loop
even:
  %half:i64 = udiv %n, 2:i64
  %len3:i64 = add %len, 1:i64
  br loop
out:
  ret %len
}
"#;
    // collatz(6): 6 3 10 5 16 8 4 2 1 -> 8 steps
    run_all_kinds(src, "collatz_len", &[6], 8);
}

#[test]
fn width_semantics_i8_overflow() {
    let src = r#"
module "m"
func public @wrap(%x: i64) : i64 {
entry:
  %b:i8 = cast trunc %x to i8
  %c:i8 = add %b, 1:i8
  %w:i64 = cast zext %c to i64
  ret %w
}
"#;
    run_all_kinds(src, "wrap", &[255], 0);
    run_all_kinds(src, "wrap", &[130], 131);
}

#[test]
fn signed_ops_and_sext() {
    let src = r#"
module "m"
func public @sdiv_test(%a: i64, %b: i64) : i64 {
entry:
  %q:i64 = sdiv %a, %b
  ret %q
}
func public @sext8(%x: i64) : i64 {
entry:
  %b:i8 = cast trunc %x to i8
  %w:i64 = cast sext %b to i64
  ret %w
}
"#;
    run_all_kinds(src, "sdiv_test", &[(-7i64) as u64, 2], (-3i64) as u64);
    // 0xFF as i8 = -1 sign-extended.
    run_all_kinds(src, "sext8", &[0xFF], u64::MAX);
}

#[test]
fn memory_and_structs() {
    let src = r#"
module "m"
struct %pair = { i64, i32 }
func public @swapadd() : i64 {
entry:
  %p:%pair* = alloca %pair, 1:i32
  %a:i64* = gep %p [0:i32, 0:i32]
  %b:i32* = gep %p [0:i32, 1:i32]
  store 40:i64, %a
  store 2:i32, %b
  %x:i64 = load %a
  %y:i32 = load %b
  %y64:i64 = cast zext %y to i64
  %r:i64 = add %x, %y64
  ret %r
}
"#;
    run_all_kinds(src, "swapadd", &[], 42);
}

#[test]
fn globals_and_function_pointers() {
    let src = r#"
module "m"
global @counter : i64 = zero
func internal @inc(%by: i64) : i64 {
entry:
  %old:i64 = load @counter
  %new:i64 = add %old, %by
  store %new, @counter
  ret %new
}
func public @twice(%by: i64) : i64 {
entry:
  %a:i64 = call @inc(%by)
  %b:i64 = call @inc(%by)
  ret %b
}
"#;
    run_all_kinds(src, "twice", &[5], 10);
}

#[test]
fn forks_copy_their_template_memory() {
    let src = r#"
module "m"
global @counter : i64 = zero
func public @bump(%by: i64) : i64 {
entry:
  %old:i64 = load @counter
  %new:i64 = add %old, %by
  store %new, @counter
  ret %new
}
"#;
    let mut template = vm_for(src, KernelKind::Native);
    template.call("bump", &[0x5a5a]).unwrap();
    for cpu in [0u32, 1] {
        let mut fork = template.fork_for_cpu(cpu);
        // Every region's bytes and written-page set, and the current asid.
        assert!(fork.mem == template.mem, "cpu {cpu}: fork memory differs");
        // The fork runs on from the template's state.
        assert_eq!(fork.call("bump", &[1]).unwrap(), VmExit::Returned(0x5a5b));
    }
}

/// Boots `prog` on the nested-recovery kernel to its first user
/// instruction, the point a snapshot-forked campaign images. This is
/// `sva_kernel::harness::boot_user_paused` over this crate's `Vm`; the
/// harness's functions take the library build's.
fn paused_kernel(prog: &str, arg: u64) -> Vm {
    let module = sva_kernel::harness::safe_kernel_module_with(
        sva_kernel::AS_TESTED_EXCLUSIONS,
        &sva_kernel::build::KernelOptions {
            recovery: true,
            nested: true,
            ..Default::default()
        },
    );
    let mut vm = Vm::new(
        module,
        VmConfig {
            kind: KernelKind::SvaSafe,
            ..Default::default()
        },
    )
    .expect("kernel loads");
    let entry = vm.func_address(prog).expect("user program");
    vm.write_global_u64("boot_user_prog", entry).unwrap();
    vm.write_global_u64("boot_user_arg", arg).unwrap();
    assert!(matches!(vm.boot_to_user(), Ok(None)), "{prog}: boot");
    vm
}

#[test]
fn kernel_images_encode_like_a_dense_scan() {
    use crate::snapshot::{ORIGIN_CHECKPOINT, ORIGIN_MIDFLIGHT};
    use sva_kernel::harness::pack_arg;
    // The reference counts every page of every region as written, so
    // the writer tests each whole region for zero pages: a dense scan.
    let dense = |vm: &mut Vm, origin| {
        let all = vm.mem.every_page_written();
        let sparse = std::mem::replace(&mut vm.mem, all);
        let image = vm.snapshot_with_origin(origin);
        vm.mem = sparse;
        image
    };
    for (prog, arg) in [
        ("user_getpid_loop", pack_arg(400, 0, 0)),
        ("user_openclose_loop", pack_arg(60, 0, 0)),
        ("user_pipe_loop", pack_arg(6, 128, 0)),
        ("user_fork_loop", pack_arg(8, 0, 0)),
    ] {
        let mut vm = paused_kernel(prog, arg);
        assert!(
            vm.snapshot() == dense(&mut vm, ORIGIN_CHECKPOINT),
            "{prog}: boot image"
        );
        let mut cut = 0;
        for steps in [1, 700, 4000, 20_000] {
            if vm.run_steps(steps).unwrap().is_some() {
                break;
            }
            cut += steps;
            assert!(
                vm.snapshot_midflight() == dense(&mut vm, ORIGIN_MIDFLIGHT),
                "{prog}: cut {cut} steps into user mode"
            );
        }
        assert!(cut > 0, "{prog}: finished before the first cut");
    }
}

#[test]
fn guest_loads_that_wrap_past_2_pow_64_fault() {
    let src = r#"
module "m"
func public @peek(%a: i64) : i64 {
entry:
  %p:i64* = cast inttoptr %a to i64*
  %v:i64 = load %p
  ret %v
}
"#;
    let addr = u64::MAX - 3;
    for kind in KernelKind::ALL {
        let mut vm = if kind == KernelKind::SvaSafe {
            let cfg = VmConfig {
                kind,
                ..Default::default()
            };
            Vm::new(safe_module(src), cfg).expect("load")
        } else {
            vm_for(src, kind)
        };
        match vm.call("peek", &[addr]) {
            Err(VmError::Fault { addr: a, len: 8 }) if a == addr => {}
            r => panic!("{kind:?}: {r:?}"),
        }
    }
}

#[test]
fn huge_allocas_overflow_the_stack() {
    // The guest picks the count. A size (2^62 elements) or a top (2^61 - 1
    // elements) past 2^64 must not wrap to a small allocation that the
    // next `alloca` would alias.
    let src = r#"
module "m"
func public @stack(%n: i64) : i64 {
entry:
  %p:i64* = alloca i64, %n
  store 7:i64, %p
  %q:i64* = alloca i64, 1:i64
  store 9:i64, %q
  %v:i64 = load %p
  ret %v
}
"#;
    for kind in [KernelKind::SvaLlvm, KernelKind::SvaGcc] {
        for opt_level in [0u8, 2] {
            let m = parse_module(src).expect("parse");
            let cfg = VmConfig {
                kind,
                opt_level,
                ..Default::default()
            };
            let mut vm = Vm::new(m, cfg).expect("load");
            assert_eq!(vm.call("stack", &[1]).unwrap(), VmExit::Returned(7));
            for n in [1 << 62, (1 << 61) - 1] {
                match vm.call("stack", &[n]) {
                    Err(VmError::StackOverflow) => {}
                    r => panic!("{kind:?} opt {opt_level} n {n:#x}: {r:?}"),
                }
            }
        }
    }
}

#[test]
fn indirect_call_through_table() {
    let src = r#"
module "m"
func internal @double(%x: i64) : i64 {
entry:
  %r:i64 = mul %x, 2:i64
  ret %r
}
func internal @square(%x: i64) : i64 {
entry:
  %r:i64 = mul %x, %x
  ret %r
}
global @ops : [2 x ((i64) -> i64)*] = bytes x00000000000000000000000000000000 relocs [0: @double, 8: @square]
func public @apply(%which: i64, %x: i64) : i64 {
entry:
  %slot:((i64) -> i64)** = gep @ops [0:i32, %which]
  %fp:((i64) -> i64)* = load %slot
  %r:i64 = callind %fp(%x)
  ret %r
}
"#;
    run_all_kinds(src, "apply", &[0, 21], 42);
    run_all_kinds(src, "apply", &[1, 6], 36);
}

#[test]
fn memory_faults_detected() {
    let src = r#"
module "m"
func public @wild() : i64 {
entry:
  %p:i64* = cast inttoptr 64:i64 to i64*
  %v:i64 = load %p
  ret %v
}
"#;
    let mut vm = vm_for(src, KernelKind::Native);
    let err = vm.call("wild", &[]).unwrap_err();
    assert!(matches!(err, VmError::Fault { .. }), "{err}");
}

#[test]
fn div_by_zero_trap() {
    let src = r#"
module "m"
func public @crash(%a: i64, %b: i64) : i64 {
entry:
  %q:i64 = udiv %a, %b
  ret %q
}
"#;
    let mut vm = vm_for(src, KernelKind::SvaLlvm);
    let err = vm.call("crash", &[1, 0]).unwrap_err();
    assert!(matches!(err, VmError::DivZero));
}

#[test]
fn console_print() {
    let src = r#"
module "m"
func public @hello() : void {
entry:
  call $sva.print(104:i64)
  ret
}
"#;
    let mut vm = vm_for(src, KernelKind::Native);
    vm.call("hello", &[]).unwrap();
    assert_eq!(vm.console_string(), "104\n");
}

#[test]
fn abort_halts() {
    let src = r#"
module "m"
func public @die() : void {
entry:
  call $sva.abort(7:i64)
  ret
}
"#;
    let mut vm = vm_for(src, KernelKind::Native);
    assert_eq!(vm.call("die", &[]).unwrap(), VmExit::Halted(7));
}

#[test]
fn fuel_limit_stops_runaway() {
    let src = r#"
module "m"
func public @spin() : void {
entry:
  br entry
}
"#;
    let m = parse_module(src).unwrap();
    let mut vm = Vm::new(
        m,
        VmConfig {
            kind: KernelKind::Native,
            fuel: 10_000,
            ..Default::default()
        },
    )
    .unwrap();
    let err = vm.call("spin", &[]).unwrap_err();
    assert!(matches!(err, VmError::OutOfFuel));
}

/// Kernel + user program with syscall dispatch, fork-style context and
/// scheduling via save/load integer state.
const OS_SRC: &str = r#"
module "os"
global @ctx_a : [64 x i64] = zero
global @ctx_b : [64 x i64] = zero
global @log : [16 x i64] = zero
global @logn : i64 = zero

func internal @push_log(%v: i64) : void {
entry:
  %n:i64 = load @logn
  %slot:i64* = gep @log [0:i32, %n]
  store %v, %slot
  %n1:i64 = add %n, 1:i64
  store %n1, @logn
  ret
}

func internal @sys_answer(%x: i64) : i64 {
entry:
  call @push_log(%x)
  %r:i64 = add %x, 2:i64
  ret %r
}

func internal @user_main(%arg: i64) : i64 {
entry:
  %a:i64 = call $sva.syscall(40:i64, %arg) : i64
  %b:i64 = call $sva.syscall(40:i64, %a) : i64
  call $sva.abort(%b)
  ret %b
}

func public @start_kernel() : i64 {
entry:
  call $sva.register.syscall(40:i64, @user_main_reg)
  ret 0:i64
}

func internal @user_main_reg(%x: i64) : i64 {
entry:
  ret %x
}
"#;

#[test]
fn syscall_trap_and_return() {
    // Build a little OS: register handler, start a user process, check the
    // syscall round trip and that the kernel saw the argument.
    let src = r#"
module "os"
global @seen : i64 = zero

func internal @sys_answer(%x: i64) : i64 {
entry:
  store %x, @seen
  %r:i64 = add %x, 2:i64
  ret %r
}

func internal @user_main(%arg: i64) : i64 {
entry:
  %a:i64 = call $sva.syscall(40:i64, %arg) : i64
  call $sva.abort(%a)
  ret 0:i64
}

func public @start_kernel() : i64 {
entry:
  call $sva.register.syscall(40:i64, @sys_answer)
  %ic:i64 = call $sva.icontext.new(0:i64, 0:i64) : i64
  call $sva.icontext.setentry(%ic, @user_main, 7:i64)
  call $sva.iret(%ic, 0:i64)
  ret 0:i64
}
"#;
    for kind in [KernelKind::Native, KernelKind::SvaGcc, KernelKind::SvaLlvm] {
        let mut vm = vm_for(src, kind);
        let exit = vm.call("start_kernel", &[]).unwrap();
        assert_eq!(exit, VmExit::Halted(9), "{kind:?}");
        let seen = vm.read_global_u64("seen").unwrap();
        assert_eq!(seen, 7);
        assert!(vm.stats().traps >= 1);
    }
    let _ = OS_SRC;
}

#[test]
fn user_mode_cannot_use_privileged_ops() {
    let src = r#"
module "os"
func internal @evil_user(%arg: i64) : i64 {
entry:
  call $sva.register.syscall(1:i64, @evil_user)
  ret 0:i64
}
func public @start_kernel() : i64 {
entry:
  %ic:i64 = call $sva.icontext.new(0:i64, 0:i64) : i64
  call $sva.icontext.setentry(%ic, @evil_user, 0:i64)
  call $sva.iret(%ic, 0:i64)
  ret 0:i64
}
"#;
    let mut vm = vm_for(src, KernelKind::SvaLlvm);
    let err = vm.call("start_kernel", &[]).unwrap_err();
    assert!(matches!(err, VmError::Privilege { .. }), "{err}");
}

#[test]
fn user_mode_cannot_touch_kernel_memory() {
    let src = r#"
module "os"
global @secret : i64 = zero
func internal @snoop(%arg: i64) : i64 {
entry:
  %v:i64 = load @secret
  call $sva.abort(%v)
  ret 0:i64
}
func public @start_kernel() : i64 {
entry:
  store 42:i64, @secret
  %ic:i64 = call $sva.icontext.new(0:i64, 0:i64) : i64
  call $sva.icontext.setentry(%ic, @snoop, 0:i64)
  call $sva.iret(%ic, 0:i64)
  ret 0:i64
}
"#;
    let mut vm = vm_for(src, KernelKind::SvaLlvm);
    let err = vm.call("start_kernel", &[]).unwrap_err();
    assert!(matches!(err, VmError::Privilege { .. }), "{err}");
}

#[test]
fn context_switch_via_integer_state() {
    // Two kernel coroutines ping-pong via save/load integer state.
    let src = r#"
module "os"
global @bufA : [8 x i64] = zero
global @bufB : [8 x i64] = zero
global @trace : i64 = zero

func internal @note(%d: i64) : void {
entry:
  %t:i64 = load @trace
  %t10:i64 = mul %t, 10:i64
  %t2:i64 = add %t10, %d
  store %t2, @trace
  ret
}

func internal @coro_b(%x: i64) : void {
entry:
  call @note(2:i64)
  ; switch back to A
  %s:i32 = call $llva.save.integer(@bufB) : i32
  %is_orig:i1 = icmp eq %s, 1:i32
  condbr %is_orig, back, resumed
back:
  call $llva.load.integer(@bufA)
  unreachable
resumed:
  call @note(4:i64)
  ret
}

func public @start_kernel() : i64 {
entry:
  call @note(1:i64)
  %s:i32 = call $llva.save.integer(@bufA) : i32
  %first:i1 = icmp eq %s, 1:i32
  condbr %first, go_b, resumed
go_b:
  call @coro_b(0:i64)
  ; coro_b switched back to us -> resumed label
  br done_b
resumed:
  call @note(3:i64)
  ; resume B so it can finish
  %s2:i32 = call $llva.save.integer(@bufA) : i32
  %f2:i1 = icmp eq %s2, 1:i32
  condbr %f2, go_b2, done
go_b2:
  call $llva.load.integer(@bufB)
  unreachable
done_b:
  br done
done:
  %t:i64 = load @trace
  ret %t
}
"#;
    let mut vm = vm_for(src, KernelKind::SvaLlvm);
    let exit = vm.call("start_kernel", &[]).unwrap();
    // Order: note(1), note(2) in B, switch to A -> note(3), resume B ->
    // note(4), B returns into... B was called from go_b in A's ORIGINAL
    // context; when B finishes it returns to A's frame at the call site and
    // proceeds to done_b -> done. trace = (((1*10+2)*10+3)*10)+4 = 1234.
    assert_eq!(exit, VmExit::Returned(1234));
    assert!(vm.stats().context_switches >= 2);
}

#[test]
fn safe_config_requires_verified_module() {
    let src = r#"
module "m"
func public @f() : i64 {
entry:
  ret 1:i64
}
"#;
    let m = parse_module(src).unwrap();
    let err = match Vm::new(
        m,
        VmConfig {
            kind: KernelKind::SvaSafe,
            ..Default::default()
        },
    ) {
        Err(e) => e,
        Ok(_) => panic!("expected NotVerified"),
    };
    assert!(matches!(err, VmError::NotVerified));
}

/// Builds a safety-compiled & verified module from kernel-style source.
fn safe_module(src: &str) -> Module {
    let m = parse_module(src).unwrap();
    let compiled = compile(m, &AnalysisConfig::kernel(), &CompileOptions::default());
    verify_and_insert_checks(compiled.module)
        .expect("verifies")
        .module
}

const SAFE_KERNEL: &str = r#"
module "k"
declare @unused : (i8*) -> void

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
global @brk : i64 = bytes x0000201000000000
allocator ordinary "kmalloc" alloc=@kmalloc dealloc=@kfree size=arg0

func public @overflow(%idx: i64) : i64 {
entry:
  %buf:i8* = call @kmalloc(64:i64)
  %slot:i8* = gep %buf [%idx]
  store 65:i8, %slot
  %v:i8 = load %slot
  %r:i64 = cast zext %v to i64
  ret %r
}
"#;

#[test]
fn safe_kernel_in_bounds_access_passes() {
    let m = safe_module(SAFE_KERNEL);
    let mut vm = Vm::new(
        m,
        VmConfig {
            kind: KernelKind::SvaSafe,
            ..Default::default()
        },
    )
    .unwrap();
    let r = vm.call("overflow", &[10]).unwrap();
    assert_eq!(r, VmExit::Returned(65));
    let stats = vm.pools.total_stats();
    assert!(
        stats.bounds_checks + vm.stats().range_checks >= 1,
        "{stats:?} {:?}",
        vm.stats()
    );
    assert!(stats.registrations >= 1);
}

#[test]
fn safe_kernel_lookup_breakdown_and_ablation_agree() {
    // With the fast path on, the checks of `overflow` are answered by the
    // singleton test, the MRU and the range index; with it off the same
    // run is all tree walks. Outcome, cycle count and check volume must
    // be identical either way.
    let run = |fast_path: bool| {
        let m = safe_module(SAFE_KERNEL);
        let mut vm = Vm::new(
            m,
            VmConfig {
                kind: KernelKind::SvaSafe,
                fast_path,
                ..Default::default()
            },
        )
        .unwrap();
        let r = vm.call("overflow", &[10]).unwrap();
        (r, vm.stats(), vm.pools.total_stats())
    };
    let (r_fast, s_fast, p_fast) = run(true);
    let (r_base, s_base, p_base) = run(false);
    assert_eq!(r_fast, r_base);
    assert_eq!(s_fast.cycles, s_base.cycles, "fast path altered cycle cost");
    assert_eq!(p_fast.total_checks(), p_base.total_checks());
    assert_eq!(p_fast.lookups(), p_base.lookups());
    // The baseline run never touches the fast layers.
    assert_eq!(
        s_base.singleton_hits + s_base.cache_hits + s_base.page_hits,
        0
    );
    assert_eq!(s_base.tree_walks, p_base.lookups());
    // The fast run never walks a tree and accounts for every lookup.
    assert_eq!(s_fast.tree_walks, 0);
    assert_eq!(
        s_fast.singleton_hits + s_fast.cache_hits + s_fast.page_hits,
        p_fast.lookups()
    );
}

#[test]
fn safe_kernel_catches_buffer_overflow() {
    let m = safe_module(SAFE_KERNEL);
    let mut vm = Vm::new(
        m,
        VmConfig {
            kind: KernelKind::SvaSafe,
            ..Default::default()
        },
    )
    .unwrap();
    let err = vm.call("overflow", &[100]).unwrap_err();
    match err {
        VmError::Safety(e) => assert_eq!(e.kind, sva_rt::CheckKind::Bounds),
        other => panic!("expected safety violation, got {other}"),
    }
}

#[test]
fn unsafe_kernels_miss_the_overflow() {
    // The same overflow on the three check-free configurations silently
    // corrupts memory (the exploit succeeds) — the paper's baseline.
    let src = SAFE_KERNEL;
    for kind in [KernelKind::Native, KernelKind::SvaGcc, KernelKind::SvaLlvm] {
        let mut vm = vm_for(src, kind);
        let r = vm.call("overflow", &[100]).unwrap();
        assert_eq!(r, VmExit::Returned(65), "{kind:?} overflow went through");
    }
}

#[test]
fn memcpy_intrinsic_kernel_user() {
    let src = r#"
module "m"
global @kbuf : [8 x i8] = bytes x4142434445464748
func public @to_user(%dst: i64) : i64 {
entry:
  %d:i8* = cast inttoptr %dst to i8*
  %s:i8* = gep @kbuf [0:i32, 0:i32]
  call $sva.memcpy(%d, %s, 8:i64)
  %v:i8 = load %d
  %r:i64 = cast zext %v to i64
  ret %r
}
"#;
    let mut vm = vm_for(src, KernelKind::Native);
    let r = vm.call("to_user", &[crate::mem::USER_BASE]).unwrap();
    assert_eq!(r, VmExit::Returned(0x41));
    assert_eq!(
        vm.mem
            .read_bytes(crate::mem::USER_BASE, 8, Mode::User)
            .unwrap(),
        b"ABCDEFGH"
    );
}

#[test]
fn stats_track_instructions() {
    let src = r#"
module "m"
func public @f() : i64 {
entry:
  %a:i64 = add 1:i64, 2:i64
  %b:i64 = add %a, 3:i64
  ret %b
}
"#;
    let mut vm = vm_for(src, KernelKind::Native);
    vm.call("f", &[]).unwrap();
    assert_eq!(vm.stats().instructions, 3);
}

#[test]
fn ipush_function_runs_before_resume() {
    // A pushed function (signal dispatch) runs first when the context is
    // resumed, then the original computation continues.
    let src = r#"
module "os"
global @order : i64 = zero

func internal @note(%d: i64) : void {
entry:
  %t:i64 = load @order
  %t10:i64 = mul %t, 10:i64
  %t2:i64 = add %t10, %d
  store %t2, @order
  ret
}

func internal @sys_note(%x: i64) : i64 {
entry:
  call @note(%x)
  ret 0:i64
}

func internal @handler(%sig: i64) : i64 {
entry:
  ; runs in USER mode: record via a syscall
  %r:i64 = call $sva.syscall(9:i64, 2:i64) : i64
  ret 0:i64
}

func internal @user_main(%arg: i64) : i64 {
entry:
  %a:i64 = call $sva.syscall(10:i64, 0:i64) : i64
  ; after this trap returns (with the handler pushed), record 3
  %b:i64 = call $sva.syscall(9:i64, 3:i64) : i64
  %t:i64 = call $sva.syscall(11:i64, 0:i64) : i64
  call $sva.abort(%t)
  ret 0:i64
}

func internal @sys_push(%x: i64) : i64 {
entry:
  call @note(1:i64)
  %icp:i64 = call $sva.icontext.get() : i64
  call $llva.ipush.function(%icp, @handler, 7:i64)
  ret 0:i64
}

func internal @sys_get(%x: i64) : i64 {
entry:
  %t:i64 = load @order
  ret %t
}

func public @start_kernel() : i64 {
entry:
  call $sva.register.syscall(9:i64, @sys_note)
  call $sva.register.syscall(10:i64, @sys_push)
  call $sva.register.syscall(11:i64, @sys_get)
  %ic:i64 = call $sva.icontext.new(0:i64, 0:i64) : i64
  call $sva.icontext.setentry(%ic, @user_main, 0:i64)
  call $sva.iret(%ic, 0:i64)
  ret 0:i64
}
"#;
    let mut vm = vm_for(src, KernelKind::SvaLlvm);
    let exit = vm.call("start_kernel", &[]).unwrap();
    // Order: sys_push notes 1; handler runs on return -> notes 2; user
    // continues -> notes 3. order = 123.
    assert_eq!(exit, VmExit::Halted(123));
}

#[test]
fn icontext_save_new_clones_fork_style() {
    // llva.icontext.save captures the trapping context as integer state;
    // sva.icontext.new builds a second context from it in a fresh address
    // space — the fork mechanism. Both "processes" then resume from the
    // same point with different syscall results.
    let src = r#"
module "os"
global @buf : [64 x i64] = zero
global @sum : i64 = zero

func internal @sys_fork2(%x: i64) : i64 {
entry:
  %icp:i64 = call $sva.icontext.get() : i64
  %key:i64 = cast ptrtoint @buf to i64
  call $llva.icontext.save(%icp, %key)
  %asid:i64 = call $sva.mmu.new.space() : i64
  %cicp:i64 = call $sva.icontext.new(%key, %asid) : i64
  ; stash the child context handle for the scheduler syscall
  %slot:i64* = gep @buf [0:i32, 63:i32]
  store %cicp, %slot
  ret 1:i64
}

func internal @sys_accum(%v: i64) : i64 {
entry:
  %s:i64 = load @sum
  %s2:i64 = add %s, %v
  store %s2, @sum
  ret 0:i64
}

func internal @sys_runchild(%x: i64) : i64 {
entry:
  %slot:i64* = gep @buf [0:i32, 63:i32]
  %cicp:i64 = load %slot
  call $sva.iret(%cicp, 0:i64)
  unreachable
}

func internal @sys_done(%x: i64) : i64 {
entry:
  %s:i64 = load @sum
  ret %s
}

func internal @user_main(%arg: i64) : i64 {
entry:
  %pid:i64 = call $sva.syscall(20:i64, 0:i64) : i64
  ; both sides add 100 + pid: parent 101, child 100
  %v:i64 = add %pid, 100:i64
  call $sva.syscall(21:i64, %v) : i64
  %isparent:i1 = icmp eq %pid, 1:i64
  condbr %isparent, parent, child
parent:
  ; switch to the child so it also runs
  call $sva.syscall(22:i64, 0:i64) : i64
  ret 0:i64
child:
  %s:i64 = call $sva.syscall(23:i64, 0:i64) : i64
  call $sva.abort(%s)
  ret 0:i64
}

func public @start_kernel() : i64 {
entry:
  call $sva.register.syscall(20:i64, @sys_fork2)
  call $sva.register.syscall(21:i64, @sys_accum)
  call $sva.register.syscall(22:i64, @sys_runchild)
  call $sva.register.syscall(23:i64, @sys_done)
  %ic:i64 = call $sva.icontext.new(0:i64, 0:i64) : i64
  call $sva.icontext.setentry(%ic, @user_main, 0:i64)
  call $sva.iret(%ic, 0:i64)
  ret 0:i64
}
"#;
    let mut vm = vm_for(src, KernelKind::SvaLlvm);
    let exit = vm.call("start_kernel", &[]).unwrap();
    // parent adds 101, child (fork returns 0) adds 100 → 201.
    assert_eq!(exit, VmExit::Halted(201));
    assert!(vm.mem.live_spaces() >= 2, "fork created an address space");
}

#[test]
fn was_privileged_reports_mode() {
    let src = r#"
module "os"
func internal @sys_check(%x: i64) : i64 {
entry:
  %icp:i64 = call $sva.icontext.get() : i64
  %p:i32 = call $llva.was.privileged(%icp) : i32
  %r:i64 = cast zext %p to i64
  ret %r
}
func internal @user_main(%arg: i64) : i64 {
entry:
  %p:i64 = call $sva.syscall(30:i64, 0:i64) : i64
  call $sva.abort(%p)
  ret 0:i64
}
func public @start_kernel() : i64 {
entry:
  call $sva.register.syscall(30:i64, @sys_check)
  %ic:i64 = call $sva.icontext.new(0:i64, 0:i64) : i64
  call $sva.icontext.setentry(%ic, @user_main, 0:i64)
  call $sva.iret(%ic, 0:i64)
  ret 0:i64
}
"#;
    let mut vm = vm_for(src, KernelKind::SvaGcc);
    // Trapped from user mode: not privileged.
    assert_eq!(vm.call("start_kernel", &[]).unwrap(), VmExit::Halted(0));
}

#[test]
fn save_fp_is_lazy() {
    let src = r#"
module "m"
func public @f() : i64 {
entry:
  call $llva.save.fp(4096:i64, 0:i64)
  %t0:i64 = call $sva.get.timer() : i64
  call $llva.load.fp(4096:i64)
  call $llva.save.fp(4096:i64, 0:i64)
  %t1:i64 = call $sva.get.timer() : i64
  %d:i64 = sub %t1, %t0
  ret %d
}
"#;
    let mut vm = vm_for(src, KernelKind::Native);
    // The second save (after a load marked the FP state dirty) must cost
    // cycles; the delta includes it.
    match vm.call("f", &[]).unwrap() {
        VmExit::Returned(d) => assert!(d >= 64, "lazy FP save not charged: {d}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn mmu_rejects_mapping_reserved_frames() {
    // §3.4: the SVM mediates MMU configuration; mapping the SVM-reserved
    // (function-address) window is refused.
    let src = r#"
module "m"
func public @evil() : void {
entry:
  call $sva.mmu.map(16:i64, 2147483648:i64, 7:i64)
  ret
}
"#;
    let mut vm = vm_for(src, KernelKind::Native);
    let err = vm.call("evil", &[]).unwrap_err();
    assert!(matches!(err, VmError::Privilege { .. }), "{err}");
}

#[test]
fn function_addresses_past_the_module_are_refused_where_handed_over() {
    // Every intrinsic that takes a function address refuses one past the
    // module, on both engines, where it is handed over: a syscall or
    // interrupt handler before any trap reaches it, an icontext entry or
    // pushed signal handler before a frame is built from it.
    let src = r#"
module "os"
func internal @user_main(%arg: i64) : i64 {
entry:
  %a:i64 = call $sva.syscall(40:i64, %arg) : i64
  call $sva.abort(%a)
  ret 0:i64
}

func internal @to_user() : i64 {
entry:
  %ic:i64 = call $sva.icontext.new(0:i64, 0:i64) : i64
  call $sva.icontext.setentry(%ic, @user_main, 7:i64)
  call $sva.iret(%ic, 0:i64)
  ret 0:i64
}

func public @reg_syscall(%f: i64) : i64 {
entry:
  call $sva.register.syscall(40:i64, %f)
  %r:i64 = call @to_user()
  ret %r
}

func public @reg_interrupt(%f: i64) : i64 {
entry:
  call $sva.register.interrupt(0:i64, %f)
  %r:i64 = call @to_user()
  ret %r
}

func public @set_entry(%f: i64) : i64 {
entry:
  %ic:i64 = call $sva.icontext.new(0:i64, 0:i64) : i64
  call $sva.icontext.setentry(%ic, %f, 7:i64)
  ret 0:i64
}

func public @ipush(%f: i64) : i64 {
entry:
  %ic:i64 = call $sva.icontext.new(0:i64, 0:i64) : i64
  call $llva.ipush.function(%ic, %f, 7:i64)
  ret 0:i64
}
"#;
    let wild = crate::mem::func_addr(1000);
    for kind in [KernelKind::SvaGcc, KernelKind::SvaLlvm] {
        for entry in ["reg_syscall", "reg_interrupt", "set_entry", "ipush"] {
            let mut vm = vm_for(src, kind);
            // Delivered at the first user-mode boundary.
            vm.raise_interrupt(0);
            match vm.call(entry, &[wild]) {
                Err(VmError::BadIndirect(a)) if a == wild => {}
                r => panic!("{kind:?} @{entry}: {r:?}"),
            }
        }
    }
}

#[test]
fn a_syscall_without_operands_dispatches_syscall_0() {
    // The structural verifier refuses `sva.syscall()`, but only the safe
    // configuration requires verified bytecode; the others dispatch it as
    // syscall 0 with no arguments.
    let src = r#"
module "m"
func internal @h() : i64 {
entry:
  ret 1:i64
}

func public @noargs() : i64 {
entry:
  call $sva.register.syscall(0:i64, @h)
  %r:i64 = call $sva.syscall() : i64
  ret %r
}
"#;
    for kind in [KernelKind::SvaGcc, KernelKind::SvaLlvm] {
        let cfg = VmConfig {
            kind,
            ..Default::default()
        };
        let mut vm = Vm::new(parse_module(src).unwrap(), cfg).unwrap();
        assert_eq!(vm.call("noargs", &[]).unwrap(), VmExit::Returned(1));
    }
}

#[test]
fn a_syscall_span_that_opens_after_the_clock_closes_at_cost_0() {
    // An image (or a vCPU fork, whose counters start at 0) can hand a
    // traced machine a syscall span that opens after its cycle count;
    // closing it must not subtract past zero.
    let src = r#"
module "os"
func internal @h(%x: i64) : i64 {
entry:
  %r:i64 = add %x, 2:i64
  ret %r
}

func internal @user_main(%arg: i64) : i64 {
entry:
  %a:i64 = call $sva.syscall(40:i64, %arg) : i64
  call $sva.abort(%a)
  ret 0:i64
}

func public @start() : i64 {
entry:
  call $sva.register.syscall(40:i64, @h)
  %ic:i64 = call $sva.icontext.new(0:i64, 0:i64) : i64
  call $sva.icontext.setentry(%ic, @user_main, 7:i64)
  call $sva.iret(%ic, 0:i64)
  ret 0:i64
}
"#;
    let traced = || {
        let cfg = VmConfig {
            kind: KernelKind::SvaLlvm,
            ..Default::default()
        };
        Vm::with_tracer(
            parse_module(src).unwrap(),
            cfg,
            sva_trace::RingTracer::default(),
        )
        .unwrap()
    };
    let mut vm = traced();
    vm.set_fuel(1);
    assert!(matches!(vm.call("start", &[]), Err(VmError::OutOfFuel)));
    vm.set_fuel(u64::MAX);
    while vm.thread.icid.is_none() {
        assert!(vm.run_steps(1).unwrap().is_none(), "no trap");
    }
    let icid = vm.thread.icid.unwrap() as usize;
    let (num, _) = vm.icontexts[icid].trace_sys.expect("a traced syscall span");
    vm.icontexts[icid].trace_sys = Some((num, vm.stats.cycles + 1_000_000));
    let mut target = traced();
    target.restore(&vm.snapshot()).unwrap();
    target.set_fuel(u64::MAX);
    assert_eq!(target.run().unwrap(), VmExit::Halted(9));
}

/// A plain machine's continuations: `@work` registers a recovery domain
/// and saves its integer state, counts to `%n` through calls, then
/// reloads the state once and unwinds to the domain once, and returns
/// `5 + n`.
const RESUME_SRC: &str = r#"
module "m"
func internal @leaf(%x: i64) : i64 {
entry:
  %y:i64 = add %x, 1:i64
  ret %y
}

func public @work(%n: i64) : i64 {
entry:
  %r:i64 = call $sva.recover.register(0:i64) : i64
  %s:i64 = call $llva.save.integer(64:i64) : i64
  br loop
loop:
  %i:i64 = phi i64 [entry: 0:i64, loop: %i2]
  %i2:i64 = call @leaf(%i)
  %done:i1 = icmp uge %i2, %n
  condbr %done, tail, loop
tail:
  %first:i1 = icmp eq %s, 1:i64
  condbr %first, reload, unw
reload:
  call $llva.load.integer(64:i64)
  ret 0:i64
unw:
  %fresh:i1 = icmp eq %r, 0:i64
  condbr %fresh, unwind, out
unwind:
  call $sva.recover.unwind(5:i64)
  ret 0:i64
out:
  %sum:i64 = add %r, %i2
  ret %sum
}
"#;

/// Each forgery edits a paused machine into a state that names code,
/// registers, pools or stack addresses the machine lacks; snapshotted, the
/// image passes every checksum, and running the state would index or
/// subtract past what the machine has.
type Forgery = (&'static str, fn(&mut Vm));

/// The running thread's innermost frame.
fn top(vm: &mut Vm) -> &mut crate::vm::Frame {
    vm.thread.frames.last_mut().unwrap()
}

/// Restores `valid` into `src`, applies each forgery and snapshots it,
/// then requires `restore` and `restore_migrated` to refuse the image and
/// `target`, which held `valid`, to run exactly as `untouched` did from
/// `valid`.
fn refuse_forgeries(src: &mut Vm, target: &mut Vm, valid: &[u8], forgeries: &[Forgery]) {
    use crate::migrate::MigrateError;
    use crate::snapshot::SnapshotError;
    let run = |vm: &mut Vm| {
        vm.set_fuel(50_000_000);
        let exit = vm.run();
        (format!("{exit:?}"), vm.stats(), vm.console.clone())
    };
    target.restore(valid).unwrap();
    let untouched = run(target);
    for (name, edit) in forgeries {
        src.restore(valid).unwrap();
        edit(src);
        let img = src.snapshot_midflight();
        target.restore(valid).unwrap();
        match target.restore(&img) {
            Err(SnapshotError::Malformed(_)) => {}
            r => panic!("{name}: restore gave {r:?}"),
        }
        match target.restore_migrated(&img) {
            Err(MigrateError::Image(SnapshotError::Malformed(_))) => {}
            r => panic!("{name}: restore_migrated gave {r:?}"),
        }
        assert!(run(target) == untouched, "{name}: diverged after refusal");
    }
}

#[test]
fn restore_refuses_state_the_machine_lacks() {
    // A plain machine paused inside `@work`'s loop, its domain and saved
    // state live.
    let plain = || {
        let cfg = VmConfig {
            kind: KernelKind::SvaLlvm,
            fuel: 60,
            ..Default::default()
        };
        Vm::new(parse_module(RESUME_SRC).unwrap(), cfg).unwrap()
    };
    let mut paused = plain();
    assert!(matches!(
        paused.call("work", &[50]),
        Err(VmError::OutOfFuel)
    ));
    assert_eq!((paused.recovery.len(), paused.int_state.len()), (1, 1));
    refuse_forgeries(
        &mut plain(),
        &mut plain(),
        &paused.snapshot_midflight(),
        &[
            ("frame pc past the code", |vm| top(vm).pc = 1_000_000),
            ("frame function past the code", |vm| top(vm).func = 1_000),
            ("frame without its registers", |vm| top(vm).regs.clear()),
            ("saved-state result register", |vm| {
                vm.int_state.get_mut(&64).unwrap().dst = Some(1_000_000)
            }),
            ("domain result register", |vm| {
                vm.recovery[0].cont.dst = Some(1_000_000)
            }),
            ("domain kernel stack pointer", |vm| {
                vm.recovery[0].cont.ksp = 0
            }),
        ],
    );

    // The nested kernel inside its first syscall handler, under the
    // syscall's domain.
    let arg = sva_kernel::harness::pack_arg(20, 0, 0);
    let mut kernel = paused_kernel("user_getpid_loop", arg);
    while kernel.thread.icid.is_none()
        || kernel.recovery.len() < 2
        || kernel.thread.frames.len() < 2
    {
        assert!(kernel.run_steps(1).unwrap().is_none(), "no syscall");
    }
    assert!(!kernel.interrupts.is_empty(), "no IRQ handler");
    let fresh = || paused_kernel("user_getpid_loop", arg);
    refuse_forgeries(
        &mut fresh(),
        &mut fresh(),
        &kernel.snapshot_midflight(),
        &[
            ("syscall table entry", |vm| {
                vm.syscalls.values_mut().for_each(|f| *f = 1_000_000)
            }),
            ("return register past the caller's", |vm| {
                top(vm).ret_dst = Some(1_000_000)
            }),
            ("icontext result register", |vm| {
                let icid = vm.thread.icid.unwrap() as usize;
                vm.icontexts[icid].result_dst = Some(1_000_000);
            }),
            ("stack registration of no metapool", |vm| {
                top(vm).stack_regs.push((99_999, 0x1000, 16))
            }),
            ("interrupt table entry", |vm| {
                let vector = *vm.interrupts.keys().next().unwrap();
                vm.interrupts.values_mut().for_each(|f| *f = 1_000_000);
                vm.pending_irq.push_back(vector);
            }),
        ],
    );
}

#[test]
fn hardware_interrupts_delivered_through_icontext() {
    // A registered interrupt handler runs when the VM raises the vector
    // mid-user-computation; the interrupted context resumes afterwards and
    // the computation's result is unaffected.
    let src = r#"
module "os"
global @ticks : i64 = zero

func internal @timer_irq(%vec: i64) : i64 {
entry:
  %t:i64 = load @ticks
  %t1:i64 = add %t, 1:i64
  store %t1, @ticks
  ret 0:i64
}

func internal @sys_ticks(%x: i64) : i64 {
entry:
  %t:i64 = load @ticks
  ret %t
}

func internal @user_main(%arg: i64) : i64 {
entry:
  br loop
loop:
  %i:i64 = phi i64 [entry: 0:i64, loop: %i1]
  %acc:i64 = phi i64 [entry: 0:i64, loop: %acc1]
  %acc1:i64 = add %acc, %i
  %i1:i64 = add %i, 1:i64
  %done:i1 = icmp uge %i1, 1000:i64
  condbr %done, out, loop
out:
  %t:i64 = call $sva.syscall(50:i64, 0:i64) : i64
  %t100:i64 = mul %t, 100000:i64
  %r:i64 = add %t100, %acc1
  call $sva.abort(%r)
  ret 0:i64
}

func public @start_kernel() : i64 {
entry:
  call $sva.register.interrupt(0:i64, @timer_irq)
  call $sva.register.syscall(50:i64, @sys_ticks)
  %ic:i64 = call $sva.icontext.new(0:i64, 0:i64) : i64
  call $sva.icontext.setentry(%ic, @user_main, 0:i64)
  call $sva.iret(%ic, 0:i64)
  ret 0:i64
}
"#;
    let mut vm = vm_for(src, KernelKind::SvaLlvm);
    for _ in 0..3 {
        vm.raise_interrupt(0);
    }
    // Also raise a vector nobody registered: it must be dropped silently.
    vm.raise_interrupt(9);
    let exit = vm.call("start_kernel", &[]).unwrap();
    // sum 0..999 = 499500; 3 ticks → 3*100000 + 499500.
    assert_eq!(exit, VmExit::Halted(3 * 100_000 + 499_500));
    assert_eq!(vm.stats().interrupts, 3);
}

// ---------------------------------------------------------------------------
// Optimizing tier (DESIGN.md §4.4): fusion.
// ---------------------------------------------------------------------------

const SAFE_LOOP_KERNEL: &str = r#"
module "k"
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
global @brk : i64 = bytes x0000201000000000
allocator ordinary "kmalloc" alloc=@kmalloc dealloc=@kfree size=arg0

func public @fill(%n: i64) : i64 {
entry:
  %buf:i8* = call @kmalloc(64:i64)
  br loop
loop:
  %i:i64 = phi i64 [entry: 0:i64, loop: %i1]
  %slot:i8* = gep %buf [%i]
  store 65:i8, %slot
  %i1:i64 = add %i, 1:i64
  %done:i1 = icmp uge %i1, %n
  condbr %done, out, loop
out:
  %last:i8* = gep %buf [7:i64]
  %v:i8 = load %last
  %r:i64 = cast zext %v to i64
  ret %r
}
"#;

#[test]
fn opt_tier_fuses_and_preserves_behavior() {
    // In a checked kernel most gep results feed the inserted pchk calls
    // (multi-use, so gep pairs stay unfused); the loop's icmp+condbr pair
    // is still fusible. At opt_level 2 the run must produce the same
    // result, check volume and (cycle-masked) stats — with sites actually
    // fused and cycles strictly reduced.
    let run = |opt_level: u8| {
        let m = safe_module(SAFE_LOOP_KERNEL);
        let mut vm = Vm::new(
            m,
            VmConfig {
                kind: KernelKind::SvaSafe,
                opt_level,
                ..Default::default()
            },
        )
        .unwrap();
        let r = vm.call("fill", &[32]).unwrap();
        (r, vm.stats(), vm.pools.total_stats(), vm.fused_sites())
    };
    let (r0, s0, p0, f0) = run(0);
    let (r2, s2, p2, f2) = run(2);
    assert_eq!(f0, 0, "baseline tier must not fuse");
    assert!(f2 > 0, "optimizing tier fused nothing");
    assert_eq!(r0, r2);
    assert_eq!(s0.equivalence_key(), s2.equivalence_key());
    assert_eq!(p0.total_checks(), p2.total_checks());
    assert!(s2.fused_execs > 0, "no fused dispatches executed");
    assert!(
        s2.cycles < s0.cycles,
        "fusion saved no cycles: {} vs {}",
        s2.cycles,
        s0.cycles
    );
    // Exactly one dispatch cycle saved per fused dispatch.
    assert_eq!(s0.cycles - s2.cycles, s2.fused_execs);
}

#[test]
fn opt_tier_applies_to_all_kernel_kinds_that_run_flat() {
    for kind in [KernelKind::Native, KernelKind::SvaLlvm] {
        let base = vm_for(COLLATZ, kind);
        let m = parse_module(COLLATZ).unwrap();
        let mut opt = Vm::new(
            m,
            VmConfig {
                kind,
                opt_level: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut base = base;
        let r0 = base.call("collatz_len", &[27]).unwrap();
        let r2 = opt.call("collatz_len", &[27]).unwrap();
        assert_eq!(r0, r2, "{kind:?}");
        assert!(opt.fused_sites() > 0, "{kind:?}");
        assert_eq!(
            base.stats().equivalence_key(),
            opt.stats().equivalence_key(),
            "{kind:?}"
        );
        assert!(opt.stats().cycles < base.stats().cycles, "{kind:?}");
    }
}

const COLLATZ: &str = r#"
module "m"
func public @collatz_len(%n0: i64) : i64 {
entry:
  br loop
loop:
  %n:i64 = phi i64 [entry: %n0, odd: %n3, even: %half]
  %len:i64 = phi i64 [entry: 0:i64, odd: %len2, even: %len3]
  %is1:i1 = icmp eq %n, 1:i64
  condbr %is1, out, step
step:
  %bit:i64 = and %n, 1:i64
  %isodd:i1 = icmp eq %bit, 1:i64
  condbr %isodd, odd, even
odd:
  %t:i64 = mul %n, 3:i64
  %n3:i64 = add %t, 1:i64
  %len2:i64 = add %len, 1:i64
  br loop
even:
  %half:i64 = udiv %n, 2:i64
  %len3:i64 = add %len, 1:i64
  br loop
out:
  ret %len
}
"#;

#[test]
fn every_nonzero_opt_level_fuses_every_function() {
    let fused = |opt_level: u8| {
        let cfg = VmConfig {
            kind: KernelKind::SvaLlvm,
            opt_level,
            ..Default::default()
        };
        Vm::new(parse_module(COLLATZ).unwrap(), cfg)
            .unwrap()
            .fused_sites()
    };
    assert_eq!(fused(0), 0, "the baseline tier fuses nothing");
    assert!(fused(2) > 0, "the optimizing tier fused nothing");
    assert_eq!(fused(1), fused(2), "opt 1 fuses what opt 2 does");
}

/// The translator's check ops on both kernels (DESIGN.md §4.11): every
/// `pchk.lscheck`, `pchk.bounds` and `pchk.bounds.range` call becomes an
/// op of its own or, at opt 2, the check a `FusedGepChkLoad` swallows; no
/// check is left as an intrinsic call; and fusion, which matches the
/// check ops, installs the sites it installed on intrinsic-call checks.
#[test]
fn check_ops_and_fusion_sites_on_both_kernels() {
    use crate::vm::{FlatCallee, FlatOp};
    use sva_ir::{Callee, Inst, Intrinsic};
    for (nested, fused_sites) in [(false, 551), (true, 557)] {
        let module = sva_kernel::harness::safe_kernel_module_with(
            sva_kernel::AS_TESTED_EXCLUSIONS,
            &sva_kernel::build::KernelOptions {
                recovery: nested,
                nested,
                ..Default::default()
            },
        );
        let calls = |want: Intrinsic| {
            let f = module.funcs.iter();
            f.flat_map(|f| f.blocks.iter().flat_map(|b| &b.insts).map(|i| f.inst(*i)))
                .filter(
                    |i| matches!(i, Inst::Call { callee: Callee::Intrinsic(c), .. } if *c == want),
                )
                .count()
        };
        let (ls, bounds) = (calls(Intrinsic::LsCheck), calls(Intrinsic::BoundsCheck));
        let range = calls(Intrinsic::BoundsCheckRange);
        assert_eq!((ls, bounds), (8, 50), "nested {nested}");
        for opt_level in [0, 2] {
            let cfg = VmConfig {
                opt_level,
                ..Default::default()
            };
            let vm = Vm::new(module.clone(), cfg).expect("kernel loads");
            let mut seen = (0, 0, 0);
            for op in vm.code.flat.iter().flat_map(|f| &f.ops) {
                match op {
                    FlatOp::LsCheck { .. } | FlatOp::FusedGepChkLoad { chk_src: None, .. } => {
                        seen.0 += 1
                    }
                    FlatOp::BoundsCheck { .. }
                    | FlatOp::FusedGepChkLoad {
                        chk_src: Some(_), ..
                    } => seen.1 += 1,
                    FlatOp::RangeCheck { .. } => seen.2 += 1,
                    FlatOp::Call {
                        callee: FlatCallee::Intrinsic(i),
                        ..
                    } => assert!(
                        !matches!(
                            i,
                            Intrinsic::LsCheck
                                | Intrinsic::BoundsCheck
                                | Intrinsic::BoundsCheckRange
                        ),
                        "{} left as a call",
                        i.name()
                    ),
                    _ => {}
                }
            }
            let ctx = format!("nested {nested} opt {opt_level}");
            assert_eq!(seen, (ls, bounds, range), "{ctx}");
            let want = if opt_level == 0 { 0 } else { fused_sites };
            assert_eq!(vm.fused_sites(), want, "{ctx}");
        }
    }
}

/// One counter table's derived items agree (DESIGN.md §4.13): `words`
/// are `to_words` of `from_words(1..=WORDS)`, `debug` is that block's
/// `Debug` output and `m` the registry its `fold_into` filled.
fn assert_counter_table(names: &[&str], words: &[u64], debug: &str, m: &MetricsRegistry) {
    let want: Vec<u64> = (1..=names.len() as u64).collect();
    assert_eq!(words, want, "from_words/to_words round trip");
    // The i-th field `Debug` prints is the i-th name's field and holds
    // word i: wire order and the `sim_digest` text agree.
    let body = debug.split_once(" { ").expect("struct body").1;
    let fields: Vec<&str> = body.trim_end_matches(" }").split(", ").collect();
    assert_eq!(fields.len(), names.len());
    for (i, f) in fields.iter().enumerate() {
        let (field, value) = f.split_once(": ").expect("field: value");
        assert!(
            names[i].ends_with(&format!(".{field}")),
            "{} vs {field}",
            names[i]
        );
        assert_eq!(value, (i + 1).to_string(), "{field}");
    }
    assert_eq!(m.counters().count(), names.len(), "one series per word");
    for (i, name) in names.iter().enumerate() {
        assert_eq!(m.counter(name), i as u64 + 1, "{name}");
    }
}

#[test]
fn counter_tables_round_trip_and_name_fields_in_wire_order() {
    let s = VmStats::from_words(std::array::from_fn(|i| i as u64 + 1));
    let mut m = MetricsRegistry::new();
    s.fold_into(&mut m);
    assert_counter_table(&VmStats::NAMES, &s.to_words(), &format!("{s:?}"), &m);

    let c = CheckStats::from_words(std::array::from_fn(|i| i as u64 + 1));
    let mut m = MetricsRegistry::new();
    c.fold_into(&mut m);
    assert_counter_table(&CheckStats::NAMES, &c.to_words(), &format!("{c:?}"), &m);
}

#[test]
fn every_series_exported_before_the_table_still_is() {
    let mut m = MetricsRegistry::new();
    VmStats::default().fold_into(&mut m);
    CheckStats::default().fold_into(&mut m);
    for name in [
        "check.bounds_checks",
        "check.ls_checks",
        "check.get_bounds",
        "check.func_checks",
        "check.registrations",
        "check.drops",
        "check.reduced_skips",
        "check.lookup.singleton_hits",
        "check.lookup.cache_hits",
        "check.lookup.page_hits",
        "check.lookup.tree_walks",
        "check.quarantine_rejects",
        "recovery.repairs",
        "recovery.pools_repaired",
        "recovery.probation_passed",
        "recovery.probation_failed",
        "recovery.subsys_retired",
    ] {
        assert!(m.counters().any(|(n, _)| n == name), "{name} not exported");
    }
}
