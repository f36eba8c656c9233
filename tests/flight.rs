//! The flight recorder's contract (DESIGN.md §4.7): an always-on tail
//! tracer that never perturbs the machine it observes. A flight-recorded
//! kernel must execute byte-identically to an untraced one — same exit,
//! same console, same `VmStats::equivalence_key` — while still holding
//! the high-signal tail a postmortem needs.

use sva::kernel::harness::{
    boot_user, make_vm_nested, make_vm_nested_traced, make_vm_recovering,
    make_vm_recovering_traced, pack_arg,
};
use sva::trace::{EventClass, FlightRecorder, TraceEvent, Tracer};
use sva::vm::VmConfig;

#[test]
fn flight_recorded_machine_is_byte_identical_on_clean_boot() {
    // Fault-free nested-kernel workload: syscalls, pipes, scheduling.
    let mut plain = make_vm_nested(VmConfig::default());
    let exit_plain = boot_user(&mut plain, "user_pipe_loop", pack_arg(5, 64, 0)).unwrap();

    let mut flown = make_vm_nested_traced(VmConfig::default(), FlightRecorder::default());
    let exit_flown = boot_user(&mut flown, "user_pipe_loop", pack_arg(5, 64, 0)).unwrap();

    assert_eq!(exit_plain, exit_flown);
    assert_eq!(plain.console_string(), flown.console_string());
    assert_eq!(
        plain.stats().equivalence_key(),
        flown.stats().equivalence_key(),
        "flight recording perturbed the machine"
    );

    // And the black box actually flew: the tail holds the syscall spans
    // the workload executed.
    let f = flown.tracer();
    assert!(f
        .recent_events()
        .iter()
        .any(|e| matches!(e.event, TraceEvent::SyscallExit { .. })));
}

#[test]
fn flight_recorded_machine_is_byte_identical_through_recovery() {
    // The adversarial variant: a violation storm with unwinds, quarantine
    // and poisoning — the very traffic the recorder pins — must still
    // leave the machine bit-exact with its untraced twin.
    let mut plain = make_vm_recovering(VmConfig::default());
    let exit_plain = boot_user(&mut plain, "user_exploit_bt", 0).unwrap();

    let mut flown = make_vm_recovering_traced(VmConfig::default(), FlightRecorder::default());
    let exit_flown = boot_user(&mut flown, "user_exploit_bt", 0).unwrap();

    assert_eq!(exit_plain, exit_flown);
    assert_eq!(plain.console_string(), flown.console_string());
    assert_eq!(
        plain.stats().equivalence_key(),
        flown.stats().equivalence_key(),
        "flight recording perturbed the recovery path"
    );

    let s = plain.stats();
    assert!(s.violations_recovered >= 1, "workload never tripped");

    // The recorder's tail holds what the stats counted.
    let tail = flown.tracer().recent_events();
    assert!(tail
        .iter()
        .any(|e| e.event.class() == EventClass::Violation));
    assert!(tail
        .iter()
        .any(|e| matches!(e.event, TraceEvent::RecoverUnwind { .. })));
}
