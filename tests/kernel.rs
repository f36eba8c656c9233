//! Kernel-level integration: the four configurations must be
//! *behaviourally identical* on legitimate workloads (same console output,
//! same exit codes) and differ only in cost and in what happens to attacks.

use sva::kernel::harness::{
    boot_user, make_vm, make_vm_recovering, make_vm_recovering_traced, make_vm_traced, pack_arg,
};
use sva::trace::{EventClass, RingConfig, RingTracer, TraceEvent};
use sva::vm::{KernelKind, VmConfig, VmError, VmExit};

fn run(kind: KernelKind, prog: &str, arg: u64) -> (VmExit, String, u64) {
    let mut vm = make_vm(kind);
    let exit = boot_user(&mut vm, prog, arg)
        .unwrap_or_else(|e| panic!("{kind:?} {prog}: {e}\nbt: {:?}", vm.backtrace()));
    (exit, vm.console_string(), vm.stats().cycles)
}

#[test]
fn configs_behave_identically_on_legit_workloads() {
    let workloads: [(&str, u64); 6] = [
        ("user_hello", 0),
        ("user_getpid_loop", pack_arg(25, 0, 0)),
        ("user_openclose_loop", pack_arg(10, 0, 0)),
        ("user_pipe_loop", pack_arg(5, 0, 0)),
        ("user_fork_loop", pack_arg(2, 0, 0)),
        ("user_signal_demo", 0),
    ];
    for (prog, arg) in workloads {
        let base = run(KernelKind::Native, prog, arg);
        for kind in [KernelKind::SvaGcc, KernelKind::SvaLlvm, KernelKind::SvaSafe] {
            let got = run(kind, prog, arg);
            assert_eq!(got.0, base.0, "{kind:?} {prog}: exit differs");
            assert_eq!(got.1, base.1, "{kind:?} {prog}: console differs");
        }
    }
}

#[test]
fn tracing_is_invisible_to_the_machine() {
    // The zero-overhead-when-off discipline, stated the strong way round:
    // attaching a RingTracer must not change a single counter. Boot the
    // checked kernel with and without a tracer and demand byte-identical
    // VmStats, check counters and console output — the tracer only *reads*
    // the cycle clock, it never feeds back into execution.
    for (prog, arg) in [
        ("user_hello", 0),
        ("user_pipe_loop", pack_arg(5, 0, 0)),
        ("user_forkexec_loop", pack_arg(2, 0, 0)),
    ] {
        let mut plain = make_vm(KernelKind::SvaSafe);
        let exit_p = boot_user(&mut plain, prog, arg).expect("plain boot");

        let mut traced = make_vm_traced(KernelKind::SvaSafe, RingTracer::default());
        let exit_t = boot_user(&mut traced, prog, arg).expect("traced boot");

        assert_eq!(exit_p, exit_t, "{prog}: exit differs under tracing");
        assert_eq!(
            plain.console_string(),
            traced.console_string(),
            "{prog}: console differs under tracing"
        );
        assert_eq!(
            plain.stats(),
            traced.stats(),
            "{prog}: VmStats differ under tracing"
        );
        assert_eq!(
            plain.pools.total_stats(),
            traced.pools.total_stats(),
            "{prog}: check counters differ under tracing"
        );

        // And the trace itself must be worth having: every virtual cycle
        // accounted for, with a live event stream behind it.
        let stats = traced.stats();
        let tracer = traced.into_tracer();
        assert!(tracer.ring().total_recorded() > 0, "{prog}: empty ring");
        let coverage = tracer.profile().coverage(stats.cycles);
        assert!(
            coverage >= 0.95,
            "{prog}: profile attributes only {:.2}% of cycles",
            100.0 * coverage
        );
    }

    // The same discipline must hold across a violation-recovery unwind
    // (DESIGN.md §4.3): the unwind is machine state, the tracer is not,
    // and the recovery events must actually land in the trace. The ring
    // pins the recovery class, so no unwind or quarantine is lost to
    // wraparound.
    let mut plain = make_vm_recovering(VmConfig::default());
    let exit_p = boot_user(&mut plain, "user_exploit_bt", 0).expect("recovering boot");
    let ring = RingConfig {
        pinned: vec![EventClass::Violation, EventClass::Recovery],
        ..Default::default()
    };
    let mut traced = make_vm_recovering_traced(VmConfig::default(), RingTracer::new(ring));
    let exit_t = boot_user(&mut traced, "user_exploit_bt", 0).expect("recovering traced boot");
    assert_eq!(exit_p, exit_t, "recovery: exit differs under tracing");
    assert_eq!(
        plain.console_string(),
        traced.console_string(),
        "recovery: console differs under tracing"
    );
    let stats_t = traced.stats();
    assert_eq!(
        plain.stats(),
        stats_t,
        "recovery: VmStats differ under tracing"
    );
    assert!(
        stats_t.violations_recovered >= 1,
        "workload never recovered"
    );
    let tracer = traced.into_tracer();
    let count = |of: fn(&TraceEvent) -> bool| tracer.ring().iter().filter(|e| of(&e.event)).count();
    assert_eq!(tracer.ring().pinned_overflow(), 0);
    assert!(
        count(|e| matches!(e, TraceEvent::RecoverUnwind { .. })) as u64
            >= stats_t.violations_recovered,
        "recovery unwinds missing from the trace"
    );
    assert!(
        count(|e| matches!(e, TraceEvent::PoolQuarantine { .. })) as u64
            >= stats_t.pools_quarantined,
        "quarantine events missing from the trace"
    );
}

#[test]
fn safety_configuration_costs_more_cycles() {
    let (_, _, native) = run(KernelKind::Native, "user_pipe_loop", pack_arg(20, 0, 0));
    let (_, _, safe) = run(KernelKind::SvaSafe, "user_pipe_loop", pack_arg(20, 0, 0));
    assert!(
        safe > native + native / 10,
        "checked pipe workload must cost visibly more: {native} vs {safe}"
    );
}

#[test]
fn file_io_round_trips_data() {
    // write then read back through the VFS — on the checked kernel.
    let mut vm = make_vm(KernelKind::SvaSafe);
    let exit = boot_user(&mut vm, "user_fileread_bw", pack_arg(2, 4096, 0)).unwrap();
    assert_eq!(exit, VmExit::Halted(0));
}

#[test]
fn scp_and_thttpd_workloads_run_checked() {
    for (prog, arg) in [
        ("user_scp", pack_arg(4, 8192, 0)),
        ("user_thttpd", pack_arg(6, 311, 0)),
        ("user_thttpd", pack_arg(3, 8192, 1)), // cgi mode forks workers
    ] {
        let mut vm = make_vm(KernelKind::SvaSafe);
        let exit = boot_user(&mut vm, prog, arg)
            .unwrap_or_else(|e| panic!("{prog}: {e}\nbt: {:?}", vm.backtrace()));
        assert_eq!(exit, VmExit::Halted(0), "{prog}");
    }
}

#[test]
fn check_volume_scales_with_work() {
    let mut small = make_vm(KernelKind::SvaSafe);
    boot_user(&mut small, "user_pipe_loop", pack_arg(5, 0, 0)).unwrap();
    let s = small.pools.total_stats().total_checks();
    let mut big = make_vm(KernelKind::SvaSafe);
    boot_user(&mut big, "user_pipe_loop", pack_arg(50, 0, 0)).unwrap();
    let b = big.pools.total_stats().total_checks();
    assert!(b > s * 5, "checks must scale with iterations: {s} vs {b}");
}

#[test]
fn userspace_cannot_reach_kernel_through_syscall_buffers() {
    // §4.6: "if an attacker tries to pass a buffer that starts in userspace
    // but ends in kernel space ... this will be detected as a bounds
    // violation". getrusage writes through a user pointer; aim it at the
    // very end of userspace so the second u64 lands outside.
    let mut vm = make_vm(KernelKind::SvaSafe);
    let user_end = sva::vm::USER_END;
    let addr = vm.func_address("user_getrusage_loop").unwrap();
    vm.write_global_u64("boot_user_prog", addr).unwrap();
    // Hand-drive: one iteration with a poisoned pointer is easiest through
    // a dedicated program; instead poke the scratch pointer by running the
    // loop normally, then issue the boundary write directly.
    vm.write_global_u64("boot_user_arg", pack_arg(1, 0, 0))
        .unwrap();
    vm.boot().unwrap();
    // Direct kernel-mode reproduction of the boundary case:
    let r = vm.call("sys_getrusage", &[user_end - 4]);
    match r {
        Err(VmError::Safety(_)) | Err(VmError::Fault { .. }) => {}
        other => panic!("cross-boundary buffer must not succeed: {other:?}"),
    }
}

#[test]
fn exploit_side_effects_absent_after_catch() {
    // After a caught exploit the VM halts; the corrupting writes must not
    // have happened (checks run *before* the store). Snapshot the 64 bytes
    // after the attacked buffer and confirm they are bit-identical after
    // the catch.
    let mut vm = make_vm(KernelKind::SvaSafe);
    let base = {
        // Address resolution requires a loaded VM; snapshot pre-attack.
        vm.global_address("net_bt_scratch").unwrap()
    };
    let before = vm
        .mem
        .read_bytes(base + 64, 64, sva::vm::Mode::Kernel)
        .unwrap();
    let err = boot_user(&mut vm, "user_exploit_bt", 0).unwrap_err();
    assert!(matches!(err, VmError::Safety(_)));
    let after = vm
        .mem
        .read_bytes(base + 64, 64, sva::vm::Mode::Kernel)
        .unwrap();
    // Reduced-checks subtlety (paper §4.5/§4.9 I2): the buffer's partition
    // is *incomplete* in the as-tested kernel, so stores carry no
    // load-store check, and C's legal one-past-the-end pointer lets the
    // single boundary byte through before the next iteration's bounds
    // check stops the loop. Exactly one byte may leak; nothing beyond.
    assert_eq!(
        &before[1..24],
        &after[1..24],
        "overflow went past the boundary byte"
    );
    // Offsets 24..40 are the boot parameters `boot_user` itself writes.
    assert_eq!(
        &before[40..],
        &after[40..],
        "overflow went past the boundary byte"
    );
}
