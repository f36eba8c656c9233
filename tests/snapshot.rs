//! Integration gates for machine snapshots (DESIGN.md §4.6).
//!
//! The contract under test: `snapshot → restore → run ≡ run`. An image
//! taken at *any* instruction boundary, restored into a freshly
//! constructed machine, must finish with a byte-identical exit, stats
//! block, console and check counters — the property the snapshot-forked
//! faultcamp and the nightly golden-image cross-check both stand on.
//! Four angles:
//!
//! * **generated programs** — random counted loops and op chains cut at
//!   a random boundary, at `opt_level` 0 and 2;
//! * **the real kernel** — syscall workloads interrupted mid-boot and
//!   resumed in a fresh machine, with and without a tracer attached;
//! * **rejection paths** — cross-kind, cross-opt-level and cross-module
//!   restores must fail with the *named* structured error, and a
//!   rejected restore must leave the machine runnable;
//! * **fork ≡ reboot** — a miniature faultcamp grid run both ways
//!   (restore-from-boot-image vs fresh re-boot) must agree byte-for-byte.

use std::sync::Arc;

use proptest::prelude::*;

use sva::inject::{DropRecorder, FaultClass, FaultPlan};
use sva::ir::parse::parse_module;
use sva::kernel::harness::{
    boot_user, boot_user_paused, make_vm, make_vm_cfg, make_vm_nested, make_vm_recovering_traced,
    pack_arg,
};
use sva::rt::MetaPoolId;
use sva::vm::{
    KernelKind, Mode, RingTracer, SnapshotError, Vm, VmConfig, VmError, VmExit, VmStats, KERN_BASE,
    KERN_END,
};

// --- generated programs --------------------------------------------------

/// A counted loop with a dependent multiply-add-xor body (the same shape
/// `tests/opt_equiv.rs` uses, so fusion sites exist at `opt_level` 2).
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

/// A straight-line chain `%v{k+1} = op %v{k}, c`.
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

fn toy_vm(src: &str, opt_level: u8, fuel: u64) -> Vm {
    Vm::new(
        parse_module(src).unwrap(),
        VmConfig {
            kind: KernelKind::SvaLlvm,
            opt_level,
            fuel,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Runs `@work(arg)` uninterrupted, then again cut at instruction
/// boundary `cut` (modulo the run's length), snapshotted, restored into a
/// fresh machine and resumed — and asserts the two runs are
/// indistinguishable.
fn assert_cut_invisible(src: &str, opt_level: u8, arg: u64, cut: u64) {
    let mut base = toy_vm(src, opt_level, u64::MAX);
    let exit = base.call("work", &[arg]).unwrap();
    let base_stats = base.stats();

    // Land the cut strictly inside the run. Fuel is charged per dispatch
    // (a fused pair costs one unit), so measure the run's length in fuel
    // actually consumed, not in guest instructions.
    let consumed = u64::MAX - base.fuel();
    let cut = cut % consumed.max(1);
    let mut vm = toy_vm(src, opt_level, cut);
    match vm.call("work", &[arg]) {
        Err(VmError::OutOfFuel) => {}
        r => panic!("cut {cut} did not interrupt: {r:?}"),
    }
    let img = vm.snapshot();

    let mut fresh = toy_vm(src, opt_level, cut);
    fresh.restore(&img).unwrap();
    assert_eq!(
        fresh.fuel(),
        0,
        "restored fuel must equal the cut remainder"
    );
    fresh.set_fuel(u64::MAX);
    let r = fresh.run().unwrap();
    assert_eq!(r, exit, "opt {opt_level} cut {cut}: exit diverged");
    assert_eq!(
        fresh.stats(),
        base_stats,
        "opt {opt_level} cut {cut}: stats diverged"
    );

    // Restoring the same image a second time into the same machine must
    // replay identically (restore is a full overwrite, not a delta).
    fresh.restore(&img).unwrap();
    fresh.set_fuel(u64::MAX);
    assert_eq!(fresh.run().unwrap(), exit);
    assert_eq!(fresh.stats(), base_stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn loop_programs_round_trip_at_any_boundary(
        trip in 1u64..64,
        mul in 1u64..1_000_000,
        add in any::<u32>(),
        xor in any::<u32>(),
        arg in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let src = loop_prog(trip, mul, add as u64, xor as u64);
        assert_cut_invisible(&src, 0, arg, cut);
        assert_cut_invisible(&src, 2, arg, cut);
    }

    #[test]
    fn chain_programs_round_trip_at_any_boundary(
        ops in prop::collection::vec((0u8..7, 0u64..1_000_000), 2..24),
        arg in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let src = chain_prog(&ops);
        assert_cut_invisible(&src, 0, arg, cut);
        assert_cut_invisible(&src, 2, arg, cut);
    }
}

// --- the real kernel -----------------------------------------------------

/// Everything observable about a finished kernel run.
fn observe(vm: &Vm, exit: &Result<VmExit, VmError>) -> (String, VmStats, Vec<u8>, String) {
    (
        format!("{exit:?}"),
        vm.stats(),
        vm.console.clone(),
        format!("{:?}", vm.pools.total_stats()),
    )
}

/// Boots `prog` uninterrupted, then boots it again under a fuel tank
/// narrowed to half the run's instruction count, snapshots at the
/// out-of-fuel boundary, restores into a fresh machine and resumes.
#[test]
fn kernel_workloads_round_trip_mid_boot() {
    for (prog, iters, size) in [
        ("user_getpid_loop", 50, 0),
        ("user_write_loop", 20, 64),
        ("user_openclose_loop", 30, 0),
    ] {
        let arg = pack_arg(iters, size, 0);
        let mut base = make_vm(KernelKind::SvaSafe);
        let r = boot_user(&mut base, prog, arg);
        let want = observe(&base, &r);
        let cut = (u64::MAX - base.fuel()) / 2;

        let mut vm = make_vm_cfg(VmConfig {
            kind: KernelKind::SvaSafe,
            fuel: cut,
            ..Default::default()
        });
        match boot_user(&mut vm, prog, arg) {
            Err(VmError::OutOfFuel) => {}
            r => panic!("{prog}: cut at {cut} did not interrupt: {r:?}"),
        }
        let img = vm.snapshot();

        let mut fresh = make_vm(KernelKind::SvaSafe);
        fresh.restore(&img).unwrap();
        fresh.set_fuel(u64::MAX);
        let r = fresh.run();
        assert_eq!(observe(&fresh, &r), want, "{prog}: resumed run diverged");
    }
}

/// The post-boot pause point (`boot_user_paused`) is the snapshot point
/// svaprof and faultcamp use: resuming the *paused* machine and running a
/// *restored* machine must both match an uninterrupted boot.
#[test]
fn paused_boot_image_resumes_identically() {
    let arg = pack_arg(60, 0, 0);
    let mut base = make_vm(KernelKind::SvaSafe);
    let r = boot_user(&mut base, "user_getpid_loop", arg);
    let want = observe(&base, &r);

    let mut vm = make_vm(KernelKind::SvaSafe);
    assert!(matches!(
        boot_user_paused(&mut vm, "user_getpid_loop", arg),
        Ok(None)
    ));
    let img = vm.snapshot();

    // The paused machine itself resumes to the same end state.
    let r = vm.run();
    assert_eq!(observe(&vm, &r), want, "paused machine diverged on resume");

    // A fresh machine restored from the pause-point image does too.
    let mut fresh = make_vm(KernelKind::SvaSafe);
    fresh.restore(&img).unwrap();
    let r = fresh.run();
    assert_eq!(observe(&fresh, &r), want, "restored machine diverged");

    // And the image itself is deterministic — two identically configured
    // boots produce byte-identical images (what lets the nightly golden
    // artifact be diffed across runs at all).
    let mut vm2 = make_vm(KernelKind::SvaSafe);
    assert!(matches!(
        boot_user_paused(&mut vm2, "user_getpid_loop", arg),
        Ok(None)
    ));
    assert_eq!(
        img,
        vm2.snapshot(),
        "pause-point image is not deterministic"
    );
}

/// An attached tracer must not perturb the snapshot contract: a traced
/// machine cut mid-boot restores into a fresh traced machine and finishes
/// with identical guest-visible state. (The tracer's own ring is scratch
/// diagnostics and is deliberately not serialized.)
#[test]
fn traced_machines_round_trip() {
    let arg = pack_arg(25, 0, 0);
    let cfg = || VmConfig {
        kind: KernelKind::SvaSafe,
        ..Default::default()
    };
    let mut base = make_vm_recovering_traced(cfg(), RingTracer::default());
    let r = boot_user(&mut base, "user_openclose_loop", arg);
    let want = observe_traced(&base, &r);
    let cut = (u64::MAX - base.fuel()) / 3;

    let mut vm = make_vm_recovering_traced(VmConfig { fuel: cut, ..cfg() }, RingTracer::default());
    match boot_user(&mut vm, "user_openclose_loop", arg) {
        Err(VmError::OutOfFuel) => {}
        r => panic!("cut at {cut} did not interrupt: {r:?}"),
    }
    let img = vm.snapshot();

    let mut fresh = make_vm_recovering_traced(cfg(), RingTracer::default());
    fresh.restore(&img).unwrap();
    fresh.set_fuel(u64::MAX);
    let r = fresh.run();
    assert_eq!(observe_traced(&fresh, &r), want, "traced resume diverged");
}

fn observe_traced(
    vm: &Vm<RingTracer>,
    exit: &Result<VmExit, VmError>,
) -> (String, VmStats, Vec<u8>, String) {
    (
        format!("{exit:?}"),
        vm.stats(),
        vm.console.clone(),
        format!("{:?}", vm.pools.total_stats()),
    )
}

// --- rejection paths -----------------------------------------------------

/// Cross-configuration restores must fail with a `ConfigMismatch` naming
/// the exact field, cross-module restores with `CodeMismatch` — and the
/// rejected machine must stay fully runnable.
#[test]
fn kernel_restore_rejects_mismatched_machines() {
    let arg = pack_arg(10, 0, 0);
    let mut vm = make_vm(KernelKind::SvaSafe);
    assert!(matches!(
        boot_user_paused(&mut vm, "user_getpid_loop", arg),
        Ok(None)
    ));
    let img = vm.snapshot();

    // Wrong kernel kind. The config fingerprint is checked before code
    // identity, so the error names the field even though the module also
    // differs.
    let mut other = make_vm(KernelKind::SvaLlvm);
    match other.restore(&img) {
        Err(SnapshotError::ConfigMismatch { field: "kind", .. }) => {}
        r => panic!("expected kind mismatch, got {r:?}"),
    }

    // Wrong opt level, same kernel.
    let mut other = make_vm_cfg(VmConfig {
        kind: KernelKind::SvaSafe,
        opt_level: 2,
        ..Default::default()
    });
    match other.restore(&img) {
        Err(SnapshotError::ConfigMismatch {
            field: "opt_level",
            image: 0,
            machine: 2,
        }) => {}
        r => panic!("expected opt_level mismatch, got {r:?}"),
    }

    // Wrong violation budget, same kernel.
    let mut other = make_vm_cfg(VmConfig {
        kind: KernelKind::SvaSafe,
        violation_budget: 9,
        ..Default::default()
    });
    assert!(matches!(
        other.restore(&img),
        Err(SnapshotError::ConfigMismatch {
            field: "violation_budget",
            ..
        })
    ));

    // Same config fingerprint, different code: the recovery kernel is a
    // different module build at the same `SvaSafe` kind.
    let mut other = make_vm_nested(VmConfig::default());
    assert!(matches!(
        other.restore(&img),
        Err(SnapshotError::CodeMismatch { .. })
    ));

    // Every rejection above left `other` untouched — it still boots.
    assert!(boot_user(&mut other, "user_getpid_loop", arg).is_ok());

    // Header damage on the kernel-sized image fails closed the same way
    // the toy-program unit tests prove, and the target machine survives.
    let mut target = make_vm(KernelKind::SvaSafe);
    let mut bad = img.clone();
    bad[0] ^= 0x40;
    assert!(matches!(
        target.restore(&bad),
        Err(SnapshotError::BadMagic(_))
    ));
    let mut bad = img.clone();
    bad[4] = bad[4].wrapping_add(3);
    assert!(matches!(
        target.restore(&bad),
        Err(SnapshotError::BadVersion { .. })
    ));
    let mut bad = img.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x10;
    assert!(matches!(
        target.restore(&bad),
        Err(SnapshotError::Corrupt { .. })
    ));
    assert!(matches!(
        target.restore(&img[..img.len() / 3]),
        Err(SnapshotError::Truncated { .. })
    ));
    let r = boot_user(&mut target, "user_getpid_loop", arg);
    let mut base = make_vm(KernelKind::SvaSafe);
    let want = boot_user(&mut base, "user_getpid_loop", arg);
    assert_eq!(format!("{r:?}"), format!("{want:?}"));
    assert_eq!(target.stats(), base.stats());
}

// --- fork ≡ reboot -------------------------------------------------------

/// Metapool ids with complete points-to info in the nested kernel (the
/// probe targets faultcamp uses).
fn complete_pools(vm: &Vm) -> Vec<u32> {
    (0..vm.pools.len() as u32)
        .filter(|&i| vm.pools.pool(MetaPoolId(i)).complete)
        .collect()
}

/// A miniature faultcamp grid run both ways: fork mode (one boot image
/// per column, restore + re-arm per cell) versus reboot mode (fresh
/// translate + boot per cell). Every cell must agree byte-for-byte —
/// the invariant the full campaign's `--verify-reboot` sweep checks at
/// scale, gated here on every `cargo test`.
#[test]
fn forked_faultcamp_cells_match_fresh_reboots() {
    const FUEL: u64 = 3_000_000;
    const BUDGET: u32 = 3;
    let arg = pack_arg(40, 0, 0);
    let cfg = |hook| VmConfig {
        fuel: FUEL,
        violation_budget: BUDGET,
        fault_hook: hook,
        ..Default::default()
    };

    // Boot the column image once, recording boot-time pool drops so the
    // per-cell plans can learn the same state a boot-armed plan would.
    let rec = Arc::new(DropRecorder::new());
    let mut boot_vm = make_vm_nested(cfg(Some(rec.clone())));
    let targets = complete_pools(&boot_vm);
    assert!(matches!(
        boot_user_paused(&mut boot_vm, "user_openclose_loop", arg),
        Ok(None)
    ));
    let image = boot_vm.snapshot();
    let boot_drops = rec.drops();

    // One translated scratch machine serves every forked cell.
    let mut scratch = make_vm_nested(cfg(None));

    for class in [FaultClass::WildPtr, FaultClass::StaleUse] {
        for seed in [1u64, 5] {
            // Fork: restore the boot image, arm a fresh plan, run.
            let plan = Arc::new(FaultPlan::new(class, seed, 2, targets.clone()));
            scratch.restore(&image).unwrap();
            scratch.arm_faults(plan.clone());
            plan.replay_drops(&boot_drops);
            let r = scratch.run();
            let forked = (
                format!("{r:?}"),
                plan.injected(),
                scratch.stats().equivalence_key(),
            );

            // Reboot: fresh machine, plan armed from the very start.
            let plan = Arc::new(FaultPlan::new(class, seed, 2, targets.clone()));
            let mut vm = make_vm_nested(cfg(Some(plan.clone())));
            let r = boot_user(&mut vm, "user_openclose_loop", arg);
            let rebooted = (
                format!("{r:?}"),
                plan.injected(),
                vm.stats().equivalence_key(),
            );

            assert_eq!(
                forked, rebooted,
                "{class:?} seed {seed}: fork diverged from reboot"
            );
        }
    }
}

/// Restore replaces the kernel region; it does not lay the image over
/// what the last cell left behind. A machine that ran a fault cell to
/// completion and then restored another program's mid-flight image must
/// hold exactly the kernel bytes a fresh machine restores from that
/// image, and its next image must be the one it restored. The restored
/// image holds kernel pages the cell never wrote, so a written-page set
/// that kept the cell's pages instead of taking the image's would drop
/// them from the next image.
#[test]
fn restore_over_a_dirty_machine_matches_a_fresh_restore() {
    let cfg = || VmConfig {
        fuel: 3_000_000,
        violation_budget: 3,
        ..Default::default()
    };
    let paused = |prog, arg| {
        let mut vm = make_vm_nested(cfg());
        assert!(matches!(boot_user_paused(&mut vm, prog, arg), Ok(None)));
        vm
    };
    let getpid = paused("user_getpid_loop", pack_arg(40, 0, 0));
    let targets = complete_pools(&getpid);
    let cell_image = getpid.snapshot();
    let mut pipe = paused("user_pipe_loop", pack_arg(20, 128, 0));
    assert!(matches!(pipe.run_steps(5_000), Ok(None)));
    let image = pipe.snapshot_midflight();

    let mut dirty = make_vm_nested(cfg());
    dirty.restore(&cell_image).unwrap();
    let plan = Arc::new(FaultPlan::new(FaultClass::WildPtr, 3, 2, targets));
    dirty.arm_faults(plan.clone());
    let _ = dirty.run();
    assert!(plan.injected() > 0, "the cell injected no fault");
    dirty.restore(&image).unwrap();

    let mut fresh = make_vm_nested(cfg());
    fresh.restore(&image).unwrap();
    let kernel = |vm: &Vm| {
        vm.mem
            .read_bytes(KERN_BASE, KERN_END - KERN_BASE, Mode::Kernel)
            .unwrap()
    };
    assert!(kernel(&dirty) == kernel(&fresh), "kernel regions differ");
    let next = dirty.snapshot_midflight();
    assert!(next == image, "the restored machine re-images differently");
    assert!(next == fresh.snapshot_midflight(), "images differ");
}
