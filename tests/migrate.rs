//! Integration gates for live-upgrade snapshot migration (DESIGN.md
//! §4.10).
//!
//! The contract under test: a machine image written by any supported
//! format version (`SVA1` v3 or v4) restores into the current build
//! **through the upcaster chain** and then behaves as if the machine had
//! never been serialized at all — and every image migration cannot carry
//! forward fails closed with a structured error naming the first lost
//! field. Five angles:
//!
//! * **round trip** — proptest over generated programs: re-encoding at
//!   v3 is idempotent, migrating the v3 image reproduces the original v4
//!   bytes in one step, and migrating a current-format image is the
//!   byte-exact identity;
//! * **legacy kernel images** — real kernel snapshots re-encoded at v3
//!   restore via migration and finish bit-identically to an
//!   uninterrupted boot;
//! * **compatible rebuilds** — a kernel rebuilt with an appended
//!   never-called function (different `code_id`, identical surface
//!   prefix) adopts a mid-boot image across the code change;
//! * **fail-closed** — a changed *live* function body, a future version
//!   and the retired `SVA1` and `SVAB` v1 and v2 layouts are each refused
//!   with the named field or version, never a panic or a silent drop;
//! * **bundles** — a crash bundle embedding a previous-format snapshot
//!   migrates as a unit and the migrated bundle is a fixed point.
//!
//! Every wire format is also pinned byte for byte.

use proptest::prelude::*;

use sva::ir::bytecode::encode_module;
use sva::ir::codec::fnv64;
use sva::ir::parse::parse_module;
use sva::kernel::harness::{
    boot_user, boot_user_paused, make_vm, make_vm_cfg, make_vm_nested, make_vm_nested_patched,
    make_vm_recovering_traced, pack_arg, safe_kernel_module, USER_HEAP_BASE,
};
use sva::kernel::AS_TESTED_EXCLUSIONS;
use sva::rt::MetaPoolId;
use sva::trace::FlightRecorder;
use sva::vm::{
    encode_quiesce, migrate, migrate_bundle, plan, reencode_at, CrashBundle, CrashReason,
    KernelKind, MigrateError, SnapshotError, Vm, VmConfig, VmError, VmExit, OLDEST_SUPPORTED,
    UPCASTERS,
};

// --- toy machines ---------------------------------------------------------

/// The counted-loop shape `tests/snapshot.rs` uses, so the cut lands
/// inside a live frame of `@work`.
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

/// Runs `@work(arg)` to completion for the reference result, then again
/// cut mid-run by a narrowed fuel tank, and returns the cut machine's
/// image plus the reference `(exit, stats)`.
fn cut_image(src: &str, opt_level: u8, arg: u64, cut: u64) -> (Vec<u8>, String, sva::vm::VmStats) {
    let mut base = toy_vm(src, opt_level, u64::MAX);
    let exit = format!("{:?}", base.call("work", &[arg]));
    let consumed = u64::MAX - base.fuel();
    let cut = cut % consumed.max(1);
    let mut vm = toy_vm(src, opt_level, cut);
    match vm.call("work", &[arg]) {
        Err(VmError::OutOfFuel) => {}
        r => panic!("cut {cut} did not interrupt: {r:?}"),
    }
    (vm.snapshot(), exit, base.stats())
}

/// A synthetic halt bundle around `snapshot`, for the bundle entry
/// points.
fn toy_bundle(snapshot: Vec<u8>, code_id: u64) -> CrashBundle {
    CrashBundle {
        reason: CrashReason::Halt,
        halt_code: 41,
        resume_code_raw: 0,
        detail: "synthetic".to_string(),
        cpu: 0,
        config_words: [0; 10],
        code_id,
        stats: Default::default(),
        console: b"hello".to_vec(),
        domains: Vec::new(),
        pools: Vec::new(),
        health: Vec::new(),
        flight: Vec::new(),
        snapshot,
    }
}

/// `bytes` with its container header's version word set to `version`.
fn stamped(bytes: &[u8], version: u32) -> Vec<u8> {
    let mut b = bytes.to_vec();
    b[4..8].copy_from_slice(&version.to_le_bytes());
    b
}

// --- round trip -----------------------------------------------------------

/// Re-encoding at v3 is idempotent, the v3→v4 upcaster is a byte-exact
/// right inverse of the v4→v3 re-encode, and migration at the current
/// version is the byte-exact identity. (Body of
/// [`upcaster_chain_composes`]; plain asserts keep the proptest macro
/// expansion shallow.)
fn check_chain_composition(trip: u64, mul: u64, add: u64, arg: u64, cut: u64, opt: u8) {
    let src = loop_prog(trip, mul, add, 0xf00d);
    let (img, exit, stats) = cut_image(&src, opt, arg, cut);
    let target = toy_vm(&src, opt, u64::MAX);

    // Idempotence: already-current images pass through byte-exact.
    let (out, rep) = migrate(&target, &img).unwrap();
    assert_eq!(out, img);
    assert!(rep.steps.is_empty() && !rep.code_migrated);

    let v3 = reencode_at(&img, 3).unwrap();
    assert_eq!(reencode_at(&v3, 3).unwrap(), v3);

    // Migrating the v3 image reproduces the original bytes in one step.
    let (out, rep) = migrate(&target, &v3).unwrap();
    assert_eq!(out, img);
    assert_eq!(rep.steps.len(), 1);
    assert!(!rep.code_migrated);

    // And the migrated v3 image resumes to the reference result.
    let mut vm = toy_vm(&src, opt, 1);
    vm.restore_migrated(&v3).unwrap();
    vm.set_fuel(u64::MAX);
    assert_eq!(format!("{:?}", vm.run()), exit);
    assert_eq!(vm.stats(), stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn upcaster_chain_composes(
        trip in 1u64..48,
        mul in 1u64..1_000_000,
        add in any::<u32>(),
        arg in any::<u64>(),
        cut in any::<u64>(),
        opt in prop::sample::select(vec![0u8, 2]),
    ) {
        check_chain_composition(trip, mul, add as u64, arg, cut, opt);
    }
}

/// The registry itself is a contiguous chain from the oldest readable
/// version to the current one — the invariant `migrate` walks by.
#[test]
fn upcaster_registry_is_contiguous() {
    for (i, u) in UPCASTERS.iter().enumerate() {
        assert_eq!(
            u.from,
            OLDEST_SUPPORTED + i as u32,
            "registry out of order at {}",
            u.name
        );
        assert_eq!(u.to, u.from + 1, "upcaster {} skips a version", u.name);
    }
    assert_eq!(
        UPCASTERS.last().unwrap().to,
        plan(&cut_image(&loop_prog(4, 3, 5, 7), 0, 9, 10).0)
            .unwrap()
            .target,
        "registry does not reach the current snapshot version"
    );
}

// --- fail-closed ----------------------------------------------------------

/// A rebuild that *changes the body of a live function* must be refused
/// by name — the suspended frame would resume into different code.
#[test]
fn changed_live_function_fails_closed() {
    let src_a = loop_prog(40, 3, 5, 7);
    let src_b = loop_prog(40, 3, 6, 7); // same surface, different body
    let (img, _, _) = cut_image(&src_a, 0, 9, 50);
    let target = toy_vm(&src_b, 0, u64::MAX);
    match migrate(&target, &img) {
        Err(MigrateError::Incompatible {
            field: "live_function",
            ..
        }) => {}
        r => panic!("expected live_function refusal, got {r:?}"),
    }
}

/// A future format version is refused with `UnsupportedVersion`, and so
/// are the retired v1 and v2 layouts: an `SVA1` image through every
/// entry point that reads images, an `SVAB` bundle through every one
/// that reads bundles, and a current bundle carrying a retired image.
/// Upcasting to the current version without a target machine is refused
/// with the field that needs one (the code manifest).
#[test]
fn unknown_versions_fail_closed() {
    let (img, _, _) = cut_image(&loop_prog(8, 3, 5, 7), 0, 9, 20);
    let mut target = toy_vm(&loop_prog(8, 3, 5, 7), 0, u64::MAX);
    match migrate(&target, &stamped(&img, 99)) {
        Err(MigrateError::UnsupportedVersion { found: 99, .. }) => {}
        r => panic!("expected UnsupportedVersion, got {r:?}"),
    }
    let bundle = toy_bundle(img.clone(), 0).to_bytes();
    for v in [1u32, 2] {
        let image = stamped(&img, v);
        let carrying = toy_bundle(image.clone(), 0).to_bytes();
        let calls = [
            ("migrate", migrate(&target, &image).map(drop)),
            (
                "restore_migrated",
                target.restore_migrated(&image).map(drop),
            ),
            ("reencode_at", reencode_at(&image, 3).map(drop)),
            ("plan", plan(&image).map(drop)),
            ("plan (bundle)", plan(&stamped(&bundle, v)).map(drop)),
            (
                "migrate_bundle",
                migrate_bundle(&target, &stamped(&bundle, v)).map(drop),
            ),
            ("plan (carrying)", plan(&carrying).map(drop)),
            (
                "migrate_bundle (carrying)",
                migrate_bundle(&target, &carrying).map(drop),
            ),
        ];
        for (entry, r) in calls {
            match r {
                Err(MigrateError::UnsupportedVersion { found, .. }) if found == v => {}
                r => panic!("v{v} through {entry}: expected UnsupportedVersion, got {r:?}"),
            }
        }
    }
    assert_eq!(
        migrate(&target, &stamped(&img, 1)).unwrap_err().to_string(),
        "format version 1 unsupported (this build reads SVA1 v3–v4 and SVAB v3)"
    );
    let v3 = reencode_at(&img, 3).unwrap();
    match reencode_at(&v3, 4) {
        Err(MigrateError::Incompatible {
            field: "code_manifest",
            ..
        }) => {}
        r => panic!(
            "expected code_manifest refusal, got {:?}",
            r.map(|v| v.len())
        ),
    }
}

// --- compatible rebuilds --------------------------------------------------

/// A module extended with an appended never-called function is a
/// different `code_id` with an identical surface prefix: migration must
/// adopt the image and the resumed run must match the original build's.
#[test]
fn appended_function_rebuild_adopts_toy_image() {
    let src_a = loop_prog(40, 3, 5, 7);
    let src_b = format!(
        "{}\nfunc public @live_patch_pad() : i64 {{\nentry:\n  ret 7:i64\n}}\n",
        src_a.trim_end()
    );
    let (img, exit, stats) = cut_image(&src_a, 0, 9, 50);
    let mut patched = toy_vm(&src_b, 0, 1);
    let report = patched.restore_migrated(&img).unwrap();
    assert!(report.code_migrated, "adoption not reported");
    patched.set_fuel(u64::MAX);
    assert_eq!(format!("{:?}", patched.run()), exit);
    assert_eq!(patched.stats(), stats);

    // The reverse direction fails closed: an image from the *extended*
    // build names a function the original build does not have.
    let (img_b, _, _) = cut_image(&src_b, 0, 9, 50);
    let original = toy_vm(&src_a, 0, u64::MAX);
    match migrate(&original, &img_b) {
        Err(MigrateError::Incompatible {
            field: "function_count",
            ..
        }) => {}
        r => panic!("expected function_count refusal, got {r:?}"),
    }
}

/// The same adoption on the real kernel: `make_vm_nested_patched` is the
/// nested recovery kernel plus one pad function (a modelled compatible
/// rebuild), and it must resume a mid-boot image of the stock build to
/// the same end state.
#[test]
fn patched_kernel_adopts_mid_boot_image() {
    let arg = pack_arg(40, 0, 0);
    let mut base = make_vm_nested(VmConfig::default());
    let r = boot_user(&mut base, "user_getpid_loop", arg);
    let want = (
        format!("{r:?}"),
        base.stats().equivalence_key(),
        base.console.clone(),
    );
    let cut = (u64::MAX - base.fuel()) / 2;

    let mut vm = make_vm_nested(VmConfig {
        fuel: cut,
        ..Default::default()
    });
    match boot_user(&mut vm, "user_getpid_loop", arg) {
        Err(VmError::OutOfFuel) => {}
        r => panic!("cut at {cut} did not interrupt: {r:?}"),
    }
    let img = vm.snapshot();

    // The stock build refuses the patched build's identity outright...
    let mut patched = make_vm_nested_patched(VmConfig::default(), 0x5eed);
    assert!(matches!(
        patched.restore(&img),
        Err(SnapshotError::CodeMismatch { .. })
    ));
    // ...but migration recognises the compatible surface and adopts.
    let report = patched.restore_migrated(&img).unwrap();
    assert!(report.code_migrated, "kernel adoption not reported");
    assert!(report.steps.is_empty(), "same-format image took upcasters");
    patched.set_fuel(u64::MAX);
    let r = patched.run();
    let got = (
        format!("{r:?}"),
        patched.stats().equivalence_key(),
        patched.console.clone(),
    );
    assert_eq!(got, want, "adopted image diverged from the stock build");
}

// --- legacy kernel images -------------------------------------------------

/// A real kernel snapshot re-encoded at v3, the one supported previous
/// version, restores through the chain and finishes identically to an
/// uninterrupted boot — the nightly `--resume` cross-check in miniature.
#[test]
fn legacy_kernel_images_restore_via_migration() {
    let arg = pack_arg(30, 0, 0);
    let mut base = make_vm(KernelKind::SvaSafe);
    let r = boot_user(&mut base, "user_getpid_loop", arg);
    let want = (
        format!("{r:?}"),
        base.stats().equivalence_key(),
        base.console.clone(),
    );
    let cut = (u64::MAX - base.fuel()) / 2;

    let mut vm = make_vm_cfg(VmConfig {
        kind: KernelKind::SvaSafe,
        fuel: cut,
        ..Default::default()
    });
    match boot_user(&mut vm, "user_getpid_loop", arg) {
        Err(VmError::OutOfFuel) => {}
        r => panic!("cut at {cut} did not interrupt: {r:?}"),
    }
    let img = vm.snapshot();

    let old = reencode_at(&img, 3).unwrap();
    let mut fresh = make_vm(KernelKind::SvaSafe);
    // The strict path must refuse the old format by version...
    assert!(matches!(
        fresh.restore(&old),
        Err(SnapshotError::BadVersion { .. })
    ));
    // ...and the migration path must walk the remaining chain.
    let report = fresh.restore_migrated(&old).unwrap();
    assert_eq!(report.from_version, 3);
    assert_eq!(report.steps.len(), 1);
    fresh.set_fuel(u64::MAX);
    let r = fresh.run();
    let got = (
        format!("{r:?}"),
        fresh.stats().equivalence_key(),
        fresh.console.clone(),
    );
    assert_eq!(got, want, "v3 image diverged after migration");
}

// --- bundles --------------------------------------------------------------

/// A crash bundle embedding a previous-format snapshot migrates as one
/// unit: the embedded image is upcast, the bundle re-encoded, and the
/// result is a fixed point of `migrate_bundle`.
#[test]
fn bundle_with_legacy_snapshot_migrates_and_is_fixed_point() {
    let src = loop_prog(24, 3, 5, 7);
    let (img, _, _) = cut_image(&src, 0, 9, 40);
    let target = toy_vm(&src, 0, u64::MAX);
    let v3 = reencode_at(&img, 3).unwrap();
    let code_id = plan(&img).unwrap().code_id;
    let bytes = toy_bundle(v3, code_id).to_bytes();

    let p = plan(&bytes).unwrap();
    assert_eq!(p.kind, "bundle");
    assert_eq!(p.steps.len(), 1, "expected exactly the v3→v4 step");

    let (migrated, report) = migrate_bundle(&target, &bytes).unwrap();
    assert_eq!(report.steps, vec!["v3→v4"]);
    let out = CrashBundle::from_bytes(&migrated).unwrap();
    assert_eq!(out.console, b"hello");
    assert_eq!(out.halt_code, 41);
    // The migrated embedded snapshot is the original current-format one.
    assert_eq!(out.snapshot, img);

    // Fixed point: migrating the migrated bundle is the identity.
    let (again, report) = migrate_bundle(&target, &migrated).unwrap();
    assert_eq!(again, migrated);
    assert!(report.steps.is_empty() && !report.code_migrated);
}

/// The poisoned-pool abort(41) death of `tests/bundle.rs`, captured into
/// a bundle.
fn halt_bundle(opt_level: u8) -> CrashBundle {
    let mut vm = make_vm_recovering_traced(
        VmConfig {
            violation_budget: 1,
            opt_level,
            ..Default::default()
        },
        FlightRecorder::default(),
    );
    vm.enable_crash_capture(None, "test");
    boot_user(&mut vm, "user_hello", 0).expect("clean boot");
    for i in 0..vm.pools.len() as u32 {
        vm.pools.pool_mut(MetaPoolId(i)).note_violation(1);
    }
    let r = vm.call("sys_getrusage", &[USER_HEAP_BASE]).unwrap();
    assert_eq!(r, VmExit::Halted(41), "poisoned pool must halt");
    vm.take_crash_bundle().expect("halt must capture a bundle")
}

// --- wire-format pins -----------------------------------------------------

/// Every wire format, pinned byte for byte as `(length, FNV-1a)`: the
/// bytecode of the safe kernel, `SVA1` images of a paused boot and of a
/// mid-flight cut, that cut re-encoded at v3, an `SVAQ`
/// container of both images and an `SVAB` crash bundle. A change that
/// alters a format or the kernel build on purpose updates these pins
/// and says so.
#[test]
fn wire_formats_are_pinned() {
    let bytecode = encode_module(&safe_kernel_module(AS_TESTED_EXCLUSIONS));
    let mut vm = make_vm(KernelKind::SvaSafe);
    let paused = boot_user_paused(&mut vm, "user_getpid_loop", pack_arg(60, 0, 0));
    assert_eq!(paused.unwrap(), None);
    let boot = vm.snapshot();
    let mut vm = make_vm(KernelKind::SvaSafe);
    let paused = boot_user_paused(&mut vm, "user_pipe_loop", pack_arg(20, 128, 0));
    assert_eq!(paused.unwrap(), None);
    vm.run_steps(5000).unwrap();
    let mid = vm.snapshot_midflight();
    let pins: [(&str, Vec<u8>, usize, u64); 6] = [
        (
            "bytecode, safe kernel",
            bytecode,
            162_116,
            0x9fc5_0cac_6eaa_509f,
        ),
        ("SVA1 v4 boot", boot.clone(), 35_557, 0xb691_e59c_613c_fe40),
        ("SVA1 v4 mid", mid.clone(), 69_121, 0x4992_d291_328e_7333),
        (
            "SVA1 v3 mid",
            reencode_at(&mid, 3).unwrap(),
            64_219,
            0x6fdf_d84e_2976_29e4,
        ),
        (
            "SVAQ [boot, mid]",
            encode_quiesce(&[boot, mid]),
            104_722,
            0xb0fc_e6a1_fedb_71a0,
        ),
        (
            "SVAB halt bundle",
            halt_bundle(0).to_bytes(),
            52_765,
            0x9528_07ae_66e2_1262,
        ),
    ];
    for (what, bytes, len, hash) in pins {
        assert_eq!(
            (bytes.len(), fnv64(&bytes)),
            (len, hash),
            "{what}: the wire bytes changed"
        );
    }
}
