//! Block dispatch is invisible (DESIGN.md §4.11).
//!
//! The flat engine runs its per-boundary prologue once per block of ops
//! unless something acts at a single boundary. A machine with a
//! `RingTracer` wants per-instruction events, so it single-steps; an
//! untraced machine batches. Every case runs both and demands the same
//! exit, fuel, console, `VmStats` and `CheckStats` — and, under a fault
//! plan, the same injected count — so a block that charges differently
//! from the single steps it replaces, or runs past a boundary where the
//! watchdog, the snapshot latch, a deferred probe or an interrupt should
//! have acted, shows up as a difference.

use std::sync::Arc;

use sva::analysis::AnalysisConfig;
use sva::core::compile::{compile, CompileOptions};
use sva::core::verifier::verify_and_insert_checks;
use sva::inject::{FaultClass, FaultPlan, PROBE_DEFER};
use sva::ir::parse::parse_module;
use sva::kernel::harness::{
    boot_user, boot_user_paused, make_vm_nested, make_vm_nested_traced, make_vm_recovering,
    make_vm_recovering_traced, pack_arg, safe_kernel_module,
};
use sva::kernel::AS_TESTED_EXCLUSIONS;
use sva::rt::{CheckKind, CheckStats, MetaPoolId};
use sva::trace::{EventClass, TraceEvent};
use sva::vm::{KernelKind, RingTracer, Tracer, Vm, VmConfig, VmStats};

/// A tracer that wants only `Inst` events, so its machine single-steps
/// like a `RingTracer` one. A `RingTracer` also wants syscall spans,
/// whose bookkeeping rides in each live interrupt context and so in a
/// snapshot image; byte-comparing images therefore uses this tracer.
#[derive(Default)]
struct Stepper;

impl Tracer for Stepper {
    const ENABLED: bool = true;
    const WANTED: u16 = EventClass::Inst.bit();

    fn record(&mut self, _ts: u64, _event: TraceEvent) {}
}

/// Everything a run leaves that the block executor could get wrong.
#[derive(Debug, PartialEq)]
struct Observed {
    exit: String,
    fuel: u64,
    stats: VmStats,
    checks: CheckStats,
    console: Vec<u8>,
}

fn observe<T: Tracer, R: std::fmt::Debug>(vm: &Vm<T>, exit: &R) -> Observed {
    Observed {
        exit: format!("{exit:?}"),
        fuel: vm.fuel(),
        stats: vm.stats(),
        checks: vm.pools.total_stats(),
        console: vm.console.clone(),
    }
}

/// Metapool ids with complete points-to info in the recovery kernel (the
/// probe targets faultcamp uses).
fn complete_pools() -> Vec<u32> {
    let vm = make_vm_recovering(VmConfig::default());
    (0..vm.pools.len() as u32)
        .filter(|&i| vm.pools.pool(MetaPoolId(i)).complete)
        .collect()
}

/// The faultcamp seed grid of `tests/opt_equiv.rs`, with `IrqStorm`.
const SEEDS: [u64; 6] = [1, 2, 3, 5, 8, 13];

/// The faultcamp seed grid on the recovery kernel, all six fault classes,
/// at both opt levels: violations recovered mid-block, IRQ storms queued
/// by a trap and GEP skews consumed inside blocks must leave the batching
/// machine exactly where the single-stepping one is.
#[test]
fn faultcamp_grid_batches_like_single_steps() {
    let targets = complete_pools();
    for opt_level in [0, 2] {
        for class in FaultClass::ALL {
            for seed in SEEDS {
                let cfg = |plan: &Arc<FaultPlan>| VmConfig {
                    fuel: 10_000_000,
                    violation_budget: 3,
                    fault_hook: Some(plan.clone()),
                    opt_level,
                    ..Default::default()
                };
                let arg = pack_arg(40, 0, 0);
                let plan = Arc::new(FaultPlan::new(class, seed, 2, targets.clone()));
                let mut vm = make_vm_recovering(cfg(&plan));
                let r = boot_user(&mut vm, "user_openclose_loop", arg);
                let plan_t = Arc::new(FaultPlan::new(class, seed, 2, targets.clone()));
                let mut traced = make_vm_recovering_traced(cfg(&plan_t), RingTracer::default());
                let r_t = boot_user(&mut traced, "user_openclose_loop", arg);
                let ctx = format!("{class:?} seed {seed} opt {opt_level}");
                assert_eq!(observe(&vm, &r), observe(&traced, &r_t), "{ctx}");
                assert_eq!(plan.injected(), plan_t.injected(), "{ctx}: injections");
            }
        }
    }
}

/// The nested kernel with probes and skews deferred `PROBE_DEFER`
/// kernel-mode instructions into the handler: the window the countdown
/// runs in must single-step, so the probe fires inside the syscall's own
/// recovery domain at the same instruction either way.
#[test]
fn deferred_probes_fire_at_the_same_boundary() {
    let targets = complete_pools();
    let mut recovered = 0;
    for class in FaultClass::ALL {
        for seed in [1u64, 2, 3] {
            let cfg = |plan: &Arc<FaultPlan>| VmConfig {
                fuel: 10_000_000,
                violation_budget: 3,
                fault_hook: Some(plan.clone()),
                opt_level: 2,
                ..Default::default()
            };
            let arg = pack_arg(30, 0, 0);
            let mk = || {
                Arc::new(FaultPlan::new(class, seed, 2, targets.clone()).with_defer(PROBE_DEFER))
            };
            let plan = mk();
            let mut vm = make_vm_nested(cfg(&plan));
            let r = boot_user(&mut vm, "user_openclose_loop", arg);
            let plan_t = mk();
            let mut traced = make_vm_nested_traced(cfg(&plan_t), RingTracer::default());
            let r_t = boot_user(&mut traced, "user_openclose_loop", arg);
            let ctx = format!("{class:?} seed {seed}");
            assert_eq!(observe(&vm, &r), observe(&traced, &r_t), "{ctx}");
            assert_eq!(plan.injected(), plan_t.injected(), "{ctx}: injections");
            recovered += vm.stats().violations_recovered;
        }
    }
    assert!(recovered > 0, "no deferred probe fired");
}

/// `dbg_wedge` spins inside a domain whose watchdog fuel is 50 000: a
/// block must stop where that fuel runs out, so the force-unwind lands at
/// the same instruction as under single steps. The finite tank turns a
/// block that overran the watchdog into an `OutOfFuel` instead of a hang.
#[test]
fn watchdog_caps_the_block() {
    let cfg = VmConfig {
        fuel: 50_000_000,
        domain_fuel: 50_000,
        ..Default::default()
    };
    let mut vm = make_vm_nested(cfg.clone());
    boot_user(&mut vm, "user_hello", 0).expect("clean boot");
    let r = vm.call("dbg_wedge", &[]);
    let mut traced = make_vm_nested_traced(cfg.clone(), RingTracer::default());
    boot_user(&mut traced, "user_hello", 0).expect("clean traced boot");
    let r_t = traced.call("dbg_wedge", &[]);
    assert_eq!(vm.stats().watchdog_unwinds, 1, "{r:?}");
    assert_eq!(observe(&vm, &r), observe(&traced, &r_t));
    let mut stepped = make_vm_nested_traced(cfg, Stepper);
    boot_user(&mut stepped, "user_hello", 0).expect("clean stepped boot");
    let r_s = stepped.call("dbg_wedge", &[]);
    assert_eq!(observe(&vm, &r), observe(&stepped, &r_s));
    assert!(vm.snapshot() == stepped.snapshot(), "images differ");
}

/// `run_steps(k)` cuts `user_pipe_loop` at 16 seeded boundaries: both
/// machines must stop in the same state, and a latch armed for boundary
/// `k` must fire at the same one.
#[test]
fn cuts_and_latches_land_on_the_same_boundary() {
    let cfg = VmConfig {
        kind: KernelKind::SvaSafe,
        opt_level: 2,
        ..Default::default()
    };
    let module = safe_kernel_module(AS_TESTED_EXCLUSIONS);
    fn paused_with<T: Tracer>(module: &sva::ir::Module, cfg: &VmConfig, tracer: T) -> Vm<T> {
        let mut vm = Vm::with_tracer(module.clone(), cfg.clone(), tracer).unwrap();
        let (prog, arg) = ("user_pipe_loop", pack_arg(4, 64, 0));
        assert_eq!(boot_user_paused(&mut vm, prog, arg).unwrap(), None);
        vm
    }
    let paused = || paused_with(&module, &cfg, sva::vm::NullTracer);
    let mut full = paused();
    let start = full.fuel();
    let exit = full.run().unwrap();
    let len = start - full.fuel();
    assert!(len > 1_000, "run too short to cut: {len}");

    let mut x = 0x5eed_u64;
    for _ in 0..16 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let k = 1 + (x >> 33) % (len - 1);
        let mut vm = paused();
        assert_eq!(vm.run_steps(k).unwrap(), None, "cut {k}");
        let mut traced = paused_with(&module, &cfg, RingTracer::default());
        assert_eq!(traced.run_steps(k).unwrap(), None, "cut {k}");
        assert_eq!(observe(&vm, &()), observe(&traced, &()), "cut {k}");
        let mut stepped = paused_with(&module, &cfg, Stepper);
        assert_eq!(stepped.run_steps(k).unwrap(), None, "cut {k}");
        assert!(
            vm.snapshot() == stepped.snapshot(),
            "cut {k}: images differ"
        );

        let mut latched = paused();
        latched.request_snapshot_at(k);
        assert_eq!(latched.run().unwrap(), exit, "latch {k}");
        let img = latched.take_pending_snapshot().expect("latch fired");
        assert!(
            img == vm.snapshot_midflight(),
            "latch {k}: image differs from the cut"
        );
    }
}

/// A straight-line block that fails after three ops: each case below
/// puts one failure there. The failing op is charged before it runs, so
/// it counts among the instructions, cycles and fuel units spent.
fn failing_block(failing_op: &str) -> String {
    format!(
        r#"module "m"
func public @work(%n: i64) : i64 {{
entry:
  %z:i64 = sub %n, %n
  %a:i64 = add %n, 7:i64
  %b:i64 = mul %a, 3:i64
{failing_op}
  ret %r
}}
"#
    )
}

/// Runs `@work(5)` batched and single-stepped under a 1000-unit tank and
/// asserts the failure, fuel, stats and image agree.
fn assert_failure_agrees(module: &sva::ir::Module, kind: KernelKind, opt_level: u8) -> Observed {
    let cfg = VmConfig {
        kind,
        opt_level,
        fuel: 1000,
        ..Default::default()
    };
    let mut vm = Vm::new(module.clone(), cfg.clone()).unwrap();
    let r = vm.call("work", &[5]);
    let mut traced = Vm::with_tracer(module.clone(), cfg.clone(), RingTracer::default()).unwrap();
    let r_t = traced.call("work", &[5]);
    let seen = observe(&vm, &r);
    assert_eq!(seen, observe(&traced, &r_t), "{kind:?} opt {opt_level}");
    let mut stepped = Vm::with_tracer(module.clone(), cfg, Stepper).unwrap();
    let r_s = stepped.call("work", &[5]);
    assert_eq!(seen, observe(&stepped, &r_s), "{kind:?} opt {opt_level}");
    assert!(
        vm.snapshot() == stepped.snapshot(),
        "{kind:?} opt {opt_level}: images differ"
    );
    seen
}

/// A wild load and a division by zero in the middle of a block.
#[test]
fn faults_inside_a_block_stop_where_single_steps_do() {
    for (op, want) in [
        (
            "  %p:i64* = cast inttoptr %b to i64*\n  %r:i64 = load %p",
            "Err(Fault",
        ),
        ("  %r:i64 = sdiv %b, %z", "Err(DivZero"),
    ] {
        let m = parse_module(&failing_block(op)).unwrap();
        for opt_level in [0, 2] {
            let seen = assert_failure_agrees(&m, KernelKind::Native, opt_level);
            assert!(seen.exit.starts_with(want), "{}", seen.exit);
            // `inttoptr` is a cast: the load is the fifth op there. A
            // fused pair is one dispatch: one cycle and one fuel unit.
            let n = if want == "Err(Fault" { 5 } else { 4 };
            let dispatches = n - seen.stats.fused_execs;
            assert_eq!(seen.stats.instructions, n, "{want} opt {opt_level}");
            assert_eq!(seen.stats.cycles, dispatches, "{want} opt {opt_level}");
            assert_eq!(seen.fuel, 1000 - dispatches, "{want} opt {opt_level}");
        }
    }
}

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

/// `@work(%n)` over `ALLOC_PRELUDE`, compiled and verified, running
/// `body` from its block `body`. With `recover`, a recovery domain
/// registered first absorbs a failing check and `@work` returns the
/// resume code.
fn checked_work(recover: bool, body: &str) -> sva::ir::Module {
    let register = if recover {
        "  %code:i64 = call $sva.recover.register(0:i64) : i64
  %caught:i1 = icmp ne %code, 0:i64
  condbr %caught, out, body
out:
  ret %code
"
    } else {
        "  br body
"
    };
    let src = format!(
        r#"module "t"
{ALLOC_PRELUDE}
func public @work(%n: i64) : i64 {{
entry:
{register}body:
{body}}}
"#
    );
    let m = parse_module(&src).unwrap();
    let compiled = compile(m, &AnalysisConfig::kernel(), &CompileOptions::default());
    verify_and_insert_checks(compiled.module)
        .expect("verifies")
        .module
}

/// A load through a pointer to a freed object of a complete pool that is
/// not type-homogeneous (it holds a pointer and an integer at offset 0):
/// the inserted `pchk.lscheck` fails inside a block.
fn stale_load_module(recover: bool) -> sva::ir::Module {
    checked_work(
        recover,
        "  %a:i8* = call @kmalloc(32:i64)
  %pp:i8** = cast bitcast %a to i8**
  store %a, %pp
  %ai:i64* = cast bitcast %a to i64*
  store 7:i64, %ai
  call @kfree(%a)
  %x:i64 = add %n, 1:i64
  %y:i64 = mul %x, 3:i64
  %v:i64 = load %ai
  %r:i64 = add %v, %y
  ret %r
",
    )
}

/// A failing inline `pchk.lscheck`, escaping without a recovery domain
/// and absorbed by one.
#[test]
fn failing_inline_check_agrees_with_and_without_recovery() {
    let escaping = stale_load_module(false);
    for opt_level in [0, 2] {
        let seen = assert_failure_agrees(&escaping, KernelKind::SvaSafe, opt_level);
        assert!(
            seen.exit.contains(&format!("{:?}", CheckKind::LoadStore)),
            "the stale load must fail its lscheck: {}",
            seen.exit
        );
    }
    let recovering = stale_load_module(true);
    for opt_level in [0, 2] {
        let seen = assert_failure_agrees(&recovering, KernelKind::SvaSafe, opt_level);
        assert!(seen.exit.starts_with("Ok(Returned("), "{}", seen.exit);
        assert_eq!(seen.stats.violations_recovered, 1, "{}", seen.exit);
    }
}

/// A checked load through `%q = gep %base [idx]` into the one 32-byte
/// object of a complete pool that is not type-homogeneous (it holds an
/// integer and a pointer at offset 0), so the verifier puts a bounds
/// check of `%q` and the `lscheck` of `%q` in front of the load. With
/// `range` the base is the allocation, whose bounds the verifier knows
/// (`pchk.bounds.range`); otherwise it is reloaded from the object
/// (`pchk.bounds`). Index 3 passes both checks; 4, one past the end,
/// passes the bounds check (`derived == end` is legal) and fails the
/// `lscheck`; 5 fails the bounds check.
fn checked_gep_module(range: bool, idx: u64, recover: bool) -> sva::ir::Module {
    let base = if range { "%ai" } else { "%b" };
    checked_work(
        recover,
        &format!(
            "  %a:i8* = call @kmalloc(32:i64)
  %ai:i64* = cast bitcast %a to i64*
  store 7:i64, %ai
  %pp:i8** = cast bitcast %a to i8**
  store %a, %pp
  %a2:i8* = load %pp
  %b:i64* = cast bitcast %a2 to i64*
  %q:i64* = gep {base} [{idx}:i64]
  %v:i64 = load %q
  %r:i64 = add %v, %n
  ret %r
"
        ),
    )
}

/// A tracer that wants the `Os` and `Check` events the check ops record.
/// Without `STEP` its machine batches; with `STEP` it also wants `Inst`
/// and single-steps.
#[derive(Default)]
struct OsChecks<const STEP: bool>(Vec<(u64, TraceEvent)>);

impl<const STEP: bool> Tracer for OsChecks<STEP> {
    const ENABLED: bool = true;
    const WANTED: u16 = EventClass::Os.bit()
        | EventClass::Check.bit()
        | if STEP { EventClass::Inst.bit() } else { 0 };

    fn record(&mut self, ts: u64, event: TraceEvent) {
        if !matches!(event, TraceEvent::Inst { .. }) {
            self.0.push((ts, event));
        }
    }
}

/// Runs a [`checked_gep_module`] at both tiers through
/// [`assert_failure_agrees`] and demands that a batching and a
/// single-stepping tracer record the same `Os` and `Check` events at the
/// same cycle stamps. Returns the observations at opt 0 and 2.
fn checked_gep_case(range: bool, idx: u64, recover: bool) -> [Observed; 2] {
    let m = checked_gep_module(range, idx, recover);
    [0, 2].map(|opt_level| {
        let seen = assert_failure_agrees(&m, KernelKind::SvaSafe, opt_level);
        let cfg = VmConfig {
            opt_level,
            fuel: 1000,
            ..Default::default()
        };
        let mut batched =
            Vm::with_tracer(m.clone(), cfg.clone(), OsChecks::<false>::default()).unwrap();
        let r_b = batched.call("work", &[5]);
        let mut stepped = Vm::with_tracer(m.clone(), cfg, OsChecks::<true>::default()).unwrap();
        let r_s = stepped.call("work", &[5]);
        let ctx = format!("range {range} [{idx}] recover {recover} opt {opt_level}");
        assert_eq!(observe(&batched, &r_b), seen, "{ctx}");
        assert_eq!(observe(&stepped, &r_s), seen, "{ctx}");
        assert_eq!(batched.tracer().0, stepped.tracer().0, "{ctx}: events");
        assert!(!batched.tracer().0.is_empty(), "{ctx}: no events");
        seen
    })
}

/// The bounds-check ops, `pchk.bounds` and `pchk.bounds.range`, inside a
/// block: both checks pass; a pointer one past its object's end passes
/// the bounds check and fails the `lscheck` behind it; a pointer further
/// out fails the bounds check, and the `lscheck` never runs. Each agrees
/// with single steps, escaping and absorbed by a recovery domain.
#[test]
fn bounds_check_ops_agree_with_single_steps() {
    for (range, recover) in [(false, false), (false, true), (true, false), (true, true)] {
        let [pass, past_end, beyond] = [3, 4, 5].map(|idx| checked_gep_case(range, idx, recover));
        let ctx = format!("range {range} recover {recover}");
        for k in 0..2 {
            assert_eq!(pass[k].exit, "Ok(Returned(5))", "{ctx}");
            assert_eq!(
                past_end[k].checks.ls_checks, pass[k].checks.ls_checks,
                "{ctx}"
            );
            assert_eq!(
                beyond[k].checks.ls_checks + 1,
                pass[k].checks.ls_checks,
                "{ctx}"
            );
            if recover {
                assert_eq!(past_end[k].stats.violations_recovered, 1, "{ctx}");
                assert_eq!(beyond[k].stats.violations_recovered, 1, "{ctx}");
            } else {
                let ls = format!("{:?}", CheckKind::LoadStore);
                assert!(
                    past_end[k].exit.contains(&ls),
                    "{ctx}: {}",
                    past_end[k].exit
                );
                let bounds = format!("{:?}", CheckKind::Bounds);
                assert!(
                    beyond[k].exit.contains(&bounds),
                    "{ctx}: {}",
                    beyond[k].exit
                );
                assert_eq!(beyond[k].exit.contains("static"), range, "{ctx}");
            }
        }
    }
}
