//! SMP machine gates (DESIGN.md §4.9).
//!
//! 1. **N=1 equivalence**: a 1-vCPU [`SmpMachine`] spawns no threads, so
//!    its stats must be *byte-identical* (full `VmStats`, not just the
//!    equivalence key) to the classic single machine across the
//!    opt-equivalence kernel corpus.
//! 2. **Per-job identity**: every vCPU is a plain clone of the template
//!    with its own metapool table, so at 2 and 4 vCPUs every job of a
//!    batch ends exactly as it does run alone on one vCPU: exit,
//!    console, full `VmStats` and `CheckStats`.
//! 3. **Multi-vCPU kernel runs**: merged totals are deterministic and
//!    the virtual-time syscall throughput scales.
//! 4. **Coordinated quiesce**: a quiesced image resumes to the same
//!    terminal state.
//! 5. **Exploit detection** is the same at every vCPU count.

use sva::kernel::harness::{boot_user, make_vm_cfg, pack_arg};
use sva::vm::{decode_quiesce, KernelKind, SmpJob, SmpMachine, VmConfig, VmError};

fn cfg(kind: KernelKind, opt: u8, vcpus: u32) -> VmConfig {
    VmConfig {
        kind,
        opt_level: opt,
        vcpus,
        ..Default::default()
    }
}

/// The kernel workload corpus the opt-equivalence gates run (program,
/// packed arg).
fn corpus() -> Vec<(&'static str, u64)> {
    vec![
        ("user_getpid_loop", pack_arg(50, 0, 0)),
        ("user_write_loop", pack_arg(20, 64, 0)),
        ("user_openclose_loop", pack_arg(25, 0, 0)),
    ]
}

// ---- 1. N=1 byte-identity -------------------------------------------------

#[test]
fn single_vcpu_machine_is_byte_identical_to_the_classic_machine() {
    for kind in [KernelKind::Native, KernelKind::SvaSafe] {
        for opt in [0u8, 2] {
            for (prog, arg) in corpus() {
                // Classic machine.
                let mut vm = make_vm_cfg(cfg(kind, opt, 1));
                let exit = boot_user(&mut vm, prog, arg).expect("classic boot");
                let classic = vm.stats();

                // 1-vCPU SMP machine, same config.
                let template = make_vm_cfg(cfg(kind, opt, 1));
                let addr = template.func_address(prog).expect("prog exists");
                let mut smp = SmpMachine::new(template);
                let report = smp.run(vec![SmpJob::boot_user(prog, addr, arg)]);

                let jr = &report.jobs[0];
                assert_eq!(jr.exit.as_ref().unwrap(), &exit, "{kind:?} {prog}");
                // Full stats — cycles and fused_execs included — must
                // match, which subsumes the equivalence_key gate.
                assert_eq!(jr.stats, classic, "{kind:?} opt{opt} {prog}");
                assert_eq!(
                    jr.stats.equivalence_key(),
                    classic.equivalence_key(),
                    "{kind:?} opt{opt} {prog}"
                );
                assert_eq!(report.merged, classic);
                assert_eq!(report.cpus.len(), 1);
                assert_eq!(report.cpus[0].steals, 0);
            }
        }
    }
}

// ---- 2. per-job identity -------------------------------------------------

/// The corpus plus `user_scp`, whose checks get past the singleton test
/// to the MRU and the range index.
fn identity_batch() -> Vec<(&'static str, u64)> {
    let mut batch = corpus();
    batch.push(("user_scp", pack_arg(4, 4096, 0)));
    batch
}

#[test]
fn every_job_matches_its_single_vcpu_run() {
    for opt in [0u8, 2] {
        let solo: Vec<_> = identity_batch()
            .into_iter()
            .map(|(prog, arg)| {
                let template = make_vm_cfg(cfg(KernelKind::SvaSafe, opt, 1));
                let addr = template.func_address(prog).expect("prog exists");
                let mut smp = SmpMachine::new(template);
                smp.run(vec![SmpJob::boot_user(prog, addr, arg)])
                    .jobs
                    .remove(0)
            })
            .collect();
        for vcpus in [2u32, 4] {
            let template = make_vm_cfg(cfg(KernelKind::SvaSafe, opt, vcpus));
            // Two rounds of the batch, so every vCPU runs several jobs.
            let jobs: Vec<SmpJob> = identity_batch()
                .iter()
                .cycle()
                .take(2 * solo.len())
                .map(|&(prog, arg)| {
                    let addr = template.func_address(prog).expect("prog exists");
                    SmpJob::boot_user(prog, addr, arg)
                })
                .collect();
            let report = SmpMachine::new(template).run(jobs);
            assert!(report.failures().is_empty(), "{:?}", report.failures());
            for (j, alone) in report.jobs.iter().zip(solo.iter().cycle()) {
                let at = format!("opt{opt} {vcpus} vCPUs: job {} ({})", j.job, j.label);
                assert_eq!(format!("{:?}", j.exit), format!("{:?}", alone.exit), "{at}");
                assert_eq!(j.console, alone.console, "{at}: console");
                assert_eq!(j.stats, alone.stats, "{at}: VmStats");
                assert_eq!(j.checks, alone.checks, "{at}: CheckStats");
            }
        }
    }
}

// ---- 3. multi-vCPU kernel runs -------------------------------------------

fn smp_jobs(template: &sva::vm::Vm, reps: usize) -> Vec<SmpJob> {
    let mut jobs = Vec::new();
    for _ in 0..reps {
        for (prog, arg) in corpus() {
            let addr = template.func_address(prog).expect("prog exists");
            jobs.push(SmpJob::boot_user(prog, addr, arg));
        }
    }
    jobs
}

#[test]
fn four_vcpu_kernel_batch_is_clean_and_deterministic() {
    let run = || {
        let template = make_vm_cfg(cfg(KernelKind::SvaSafe, 2, 4));
        let jobs = smp_jobs(&template, 2);
        SmpMachine::new(template).run(jobs)
    };
    let a = run();
    let b = run();
    assert!(a.failures().is_empty(), "failures: {:?}", a.failures());
    assert_eq!(a.jobs.len(), 6);
    // Work-conserving: every job ran exactly once, whatever the steal
    // schedule did.
    assert_eq!(a.cpus.iter().map(|c| u64::from(c.jobs)).sum::<u64>(), 6);
    // The merged machine totals are schedule-independent.
    assert_eq!(a.merged.instructions, b.merged.instructions);
    assert_eq!(a.merged.traps, b.merged.traps);
    assert_eq!(a.merged.cycles, b.merged.cycles);
    assert_eq!(
        a.merged.cache_hits + a.merged.page_hits + a.merged.tree_walks + a.merged.singleton_hits,
        b.merged.cache_hits + b.merged.page_hits + b.merged.tree_walks + b.merged.singleton_hits,
    );
    // So is the split between MRU hits and the range index, and every
    // job's own counters: each job checks against its own fork's
    // metapools, so a sibling's registrations and drops cannot reach a
    // job's lookups.
    assert_eq!(a.merged, b.merged);
    for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(
            ja.stats, jb.stats,
            "job {} counters depend on the schedule",
            ja.job
        );
    }
    // Jobs land in submission order with their labels intact.
    assert_eq!(a.jobs[0].label, "user_getpid_loop");
    for (i, j) in a.jobs.iter().enumerate() {
        assert_eq!(j.job, i);
    }
}

#[test]
fn virtual_time_syscall_throughput_scales_with_vcpus() {
    let throughput = |vcpus: u32| {
        let template = make_vm_cfg(cfg(KernelKind::SvaSafe, 2, vcpus));
        let jobs = smp_jobs(&template, vcpus as usize);
        let mut smp = SmpMachine::new(template);
        let r = smp.run(jobs);
        assert!(r.failures().is_empty());
        r.syscalls_per_mcycle()
    };
    let t1 = throughput(1);
    let t4 = throughput(4);
    assert!(
        t4 > 2.5 * t1,
        "4-vCPU throughput {t4:.1} syscalls/Mcycle is not >2.5x the 1-vCPU {t1:.1}"
    );
}

// ---- 4. coordinated quiesce snapshots (DESIGN.md §4.10) -------------------

/// Fuel each corpus workload consumes booting clean on this config —
/// `min/2` is a boundary every quiesce member still hits mid-flight.
fn midflight_boundary(c: &VmConfig) -> u64 {
    let mut min = u64::MAX;
    for (prog, arg) in corpus() {
        let mut vm = make_vm_cfg(c.clone());
        let start = vm.fuel();
        boot_user(&mut vm, prog, arg).expect("clean boot");
        min = min.min(start - vm.fuel());
    }
    assert!(min > 4, "corpus boots too short to cut mid-flight");
    min / 2
}

/// The §4.10 acceptance gate: a 4-vCPU `quiesce()` yields one
/// coordinated image whose members a fresh machine restores
/// (`resume_quiesced`), and the resumed run finishes exactly like the
/// uninterrupted one — same exits, consoles and equivalence keys.
#[test]
fn four_vcpu_quiesce_image_resumes_to_the_same_terminal_state() {
    let c = cfg(KernelKind::SvaSafe, 2, 4);
    let boundary = midflight_boundary(&c);

    let template = make_vm_cfg(c.clone());
    let jobs: Vec<SmpJob> = corpus()
        .iter()
        .cycle()
        .take(4)
        .map(|(prog, arg)| {
            let addr = template.func_address(prog).expect("prog exists");
            SmpJob::boot_user(*prog, addr, *arg)
        })
        .collect();
    let mut smp = SmpMachine::new(template);
    let out = smp.quiesce(jobs, boundary);
    assert!(
        out.report.failures().is_empty(),
        "quiesce run failed: {:?}",
        out.report.failures()
    );
    let members = decode_quiesce(&out.image).expect("SVAQ container decodes");
    assert_eq!(members.len(), 4, "one member image per vCPU");

    let mut fresh = SmpMachine::new(make_vm_cfg(c));
    let resumed = fresh
        .resume_quiesced(&out.image)
        .expect("coordinated image restores");
    assert_eq!(resumed.jobs.len(), 4);
    for (a, b) in out.report.jobs.iter().zip(&resumed.jobs) {
        assert_eq!(
            format!("{:?}", a.exit),
            format!("{:?}", b.exit),
            "vCPU {} exit diverged after resume",
            a.cpu
        );
        assert_eq!(a.console, b.console, "vCPU {} console diverged", a.cpu);
        assert_eq!(
            a.stats.equivalence_key(),
            b.stats.equivalence_key(),
            "vCPU {} stats diverged after resume",
            a.cpu
        );
    }
}

/// At N=1 the quiesce member is the classic machine's `run_steps` cut,
/// so its bytes must equal a solo mid-flight snapshot of the same fork
/// at the same boundary — the coordinated container adds framing, never
/// reinterpretation.
#[test]
fn single_vcpu_quiesce_member_is_byte_identical_to_a_solo_midflight_snapshot() {
    let c = cfg(KernelKind::SvaSafe, 2, 1);
    let boundary = midflight_boundary(&c);
    let (prog, arg) = corpus()[0];

    let template = make_vm_cfg(c);
    let addr = template.func_address(prog).expect("prog exists");
    let mut smp = SmpMachine::new(template);
    let out = smp.quiesce(vec![SmpJob::boot_user(prog, addr, arg)], boundary);
    assert!(out.report.failures().is_empty());
    let members = decode_quiesce(&out.image).expect("SVAQ container decodes");
    assert_eq!(members.len(), 1);

    // The classic path: the same fork cut by a tank that holds exactly
    // `boundary` units, then refilled to what the cut machine holds.
    let mut solo = smp.template().fork_for_cpu(0);
    solo.write_global_u64("boot_user_prog", addr).unwrap();
    solo.write_global_u64("boot_user_arg", arg).unwrap();
    let fuel = solo.fuel();
    solo.set_fuel(boundary);
    assert!(matches!(solo.boot(), Err(VmError::OutOfFuel)));
    solo.set_fuel(fuel - boundary);
    assert_eq!(
        members[0],
        solo.snapshot_midflight(),
        "N=1 quiesce member is not byte-identical to the classic mid-flight snapshot"
    );
    let exit = solo.run().expect("solo run");
    assert_eq!(
        format!("{exit:?}"),
        format!("{:?}", out.report.jobs[0].exit.as_ref().unwrap())
    );
}

// ---- 5. Exploit detection under SMP ---------------------------------------

/// The §7.2 exploit suite run as SMP jobs: the detection rate must be
/// exactly 4/5 (the paper's as-tested result) at every vCPU count —
/// running a job on a vCPU fork can neither open nor close a detection
/// gap.
#[test]
fn exploit_detection_is_vcpu_invariant() {
    use sva::exploits::{EXPLOITS, EXPLOIT_FUEL};
    use sva::kernel::harness::safe_kernel_module;
    use sva::kernel::AS_TESTED_EXCLUSIONS;
    use sva::vm::Vm;

    for vcpus in [1u32, 2, 4] {
        let template = Vm::new(
            safe_kernel_module(AS_TESTED_EXCLUSIONS),
            VmConfig {
                kind: KernelKind::SvaSafe,
                fuel: EXPLOIT_FUEL,
                vcpus,
                ..Default::default()
            },
        )
        .expect("kernel loads");
        let jobs: Vec<SmpJob> = EXPLOITS
            .iter()
            .map(|e| {
                let addr = template.func_address(e.program).expect("exploit program");
                SmpJob::boot_user(e.name, addr, 0)
            })
            .collect();
        let mut smp = SmpMachine::new(template);
        let report = smp.run(jobs);
        let caught: Vec<&str> = report
            .jobs
            .iter()
            .filter(|j| matches!(j.exit, Err(VmError::Safety(_))))
            .map(|j| j.label.as_str())
            .collect();
        assert_eq!(
            caught.len(),
            4,
            "{vcpus} vCPUs: expected 4/5 exploits caught, got {caught:?}"
        );
    }
}
