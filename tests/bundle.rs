//! Crash-bundle round trips (DESIGN.md §4.7): a machine death captured
//! into a bundle must (a) survive the wire format losslessly, (b) replay
//! to the identical halt code, resume code and console at every
//! optimization tier, and (c) be rejected fail-closed when truncated or
//! corrupted — a forensic artifact that parses is trustworthy, full stop.

use std::sync::Arc;

use sva::kernel::harness::{
    boot_user, boot_user_paused, make_vm_nested, make_vm_recovering_traced, pack_arg,
    USER_HEAP_BASE,
};
use sva::kernel::postmortem::{check_reproduction, replay, ReplayExit};
use sva::rt::{CheckKind, MetaPoolId};
use sva::trace::FlightRecorder;
use sva::vm::{
    check_kind_code, BundleError, CrashBundle, CrashReason, FaultAction, FaultHook, TrapInfo,
    VmConfig, VmError, VmExit,
};

/// Drives a recovering machine into the poisoned-pool abort(41) death
/// with crash capture on, and returns the captured bundle.
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

#[test]
fn halt_bundle_round_trips_and_replays_exactly() {
    for opt_level in [0u8, 2] {
        let bundle = halt_bundle(opt_level);
        assert_eq!(bundle.reason, CrashReason::Halt);
        assert_eq!(bundle.halt_code, 41);
        let rc = bundle.resume_code().expect("resume code recorded");
        assert_eq!(
            rc.kind,
            check_kind_code(CheckKind::Quarantined),
            "opt {opt_level}: {rc}"
        );
        assert!(rc.poisoned, "opt {opt_level}: {rc}");
        assert_eq!(bundle.vm_config().unwrap().opt_level, opt_level);
        assert!(
            !bundle.flight.is_empty(),
            "flight tail must ride in the bundle"
        );

        // Lossless wire round trip.
        let back = CrashBundle::from_bytes(&bundle.to_bytes()).unwrap();
        assert_eq!(back, bundle, "opt {opt_level}: wire round trip lossy");

        // The deserialized bundle replays to the identical death.
        let r = replay(&back).unwrap_or_else(|e| panic!("opt {opt_level}: replay: {e}"));
        assert_eq!(r.flavor, "recovering");
        assert!(
            matches!(r.exit, ReplayExit::Halted(41)),
            "opt {opt_level}: {}",
            r.exit
        );
        assert_eq!(r.resume_code_raw, bundle.resume_code_raw);
        assert_eq!(r.console, bundle.console);
        check_reproduction(&back, &r)
            .unwrap_or_else(|e| panic!("opt {opt_level}: not reproduced: {e}"));
    }
}

#[test]
fn bundle_parsing_is_fail_closed() {
    let bytes = halt_bundle(0).to_bytes();

    // Truncation anywhere — inside the header, inside the payload, one
    // byte short — is rejected as Truncated, never partially parsed.
    for cut in [0, 3, 12, 23, 24, bytes.len() / 2, bytes.len() - 1] {
        match CrashBundle::from_bytes(&bytes[..cut]) {
            Err(BundleError::Truncated { .. }) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }

    // A wrong magic is not a bundle at all.
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        CrashBundle::from_bytes(&bad),
        Err(BundleError::BadMagic(_))
    ));

    // An unknown format version is refused outright.
    let mut bad = bytes.clone();
    bad[4] = 0x7f;
    assert!(matches!(
        CrashBundle::from_bytes(&bad),
        Err(BundleError::BadVersion { .. })
    ));

    // Any flipped payload bit trips the checksum.
    for pos in [24, 40, bytes.len() - 1] {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x01;
        assert!(
            matches!(
                CrashBundle::from_bytes(&bad),
                Err(BundleError::Corrupt { .. })
            ),
            "flip at {pos} must fail the checksum"
        );
    }

    // Trailing garbage after the advertised payload is rejected too: a
    // bundle is one artifact, not a container.
    let mut bad = bytes.clone();
    bad.push(0);
    assert!(CrashBundle::from_bytes(&bad).is_err());

    // And the untampered bytes still parse (the fixture is valid).
    CrashBundle::from_bytes(&bytes).unwrap();
}

/// A fault hook that lets every trap through untouched.
struct PassThrough;

impl FaultHook for PassThrough {
    fn on_trap(&self, _: &TrapInfo<'_>) -> FaultAction {
        FaultAction::default()
    }
}

/// A `run_steps` pause is not a death. Under an armed fault hook with
/// crash capture on, the pause captures no bundle and the machine runs
/// on to its clean halt. A tank that runs dry under the same hook still
/// captures a `FuelExhausted` bundle, through `run` and through a slice
/// that ends exactly where the tank does.
#[test]
fn run_steps_pause_is_not_a_crash() {
    let paused = || {
        let mut vm = make_vm_nested(VmConfig::default());
        vm.arm_faults(Arc::new(PassThrough));
        vm.enable_crash_capture(None, "probe");
        let arg = pack_arg(4, 64, 0);
        let r = boot_user_paused(&mut vm, "user_pipe_loop", arg);
        assert!(matches!(r, Ok(None)), "{r:?}");
        vm
    };
    let mut vm = paused();
    let r = vm.run_steps(1000);
    assert!(matches!(r, Ok(None)), "{r:?}");
    assert!(
        vm.take_crash_bundle().is_none(),
        "the pause captured a bundle"
    );
    let r = vm.run();
    assert!(matches!(r, Ok(VmExit::Halted(0))), "{r:?}");

    for sliced in [false, true] {
        let mut vm = paused();
        vm.set_fuel(1000);
        let r = if sliced {
            vm.run_steps(1000)
        } else {
            vm.run().map(Some)
        };
        assert!(
            matches!(r, Err(VmError::OutOfFuel)),
            "sliced {sliced}: {r:?}"
        );
        let bundle = vm.take_crash_bundle().expect("an empty tank captures");
        assert_eq!(bundle.reason, CrashReason::FuelExhausted, "sliced {sliced}");
    }
}
