//! SMP machine gates (DESIGN.md §4.9).
//!
//! 1. **N=1 equivalence**: a 1-vCPU [`SmpMachine`] creates no shared
//!    plane and spawns no threads, so its stats must be *byte-identical*
//!    (full `VmStats`, not just the equivalence key) to the classic
//!    single machine across the opt-equivalence kernel corpus.
//! 2. **Shared-plane coherence**: concurrent register/drop racing
//!    checked loads on 2–4 vCPU pool clones must never answer from a
//!    stale slot generation (a missed use-after-free) and never miss a
//!    violation
//!    — verified both by seeded deterministic schedules against a model
//!    registry and by a free-running multithreaded race.
//! 3. **4-vCPU kernel runs**: merged totals are deterministic and the
//!    virtual-time syscall throughput scales.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sva::kernel::harness::{boot_user, make_vm_cfg, pack_arg};
use sva::rt::{CheckKind, MetaPool, SharedMetaPlane};
use sva::vm::{decode_quiesce, KernelKind, SmpJob, SmpMachine, VmConfig, VmError, VmStats};

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
                assert!(smp.plane().is_none(), "N=1 must not create a plane");
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

// ---- 2. shared-plane coherence -------------------------------------------

/// Builds `n` pool clones bound to one plane slot, with `boot` objects
/// adopted as the shared baseline.
fn shared_pools(n: usize, boot: &[(u64, u64)]) -> (Arc<SharedMetaPlane>, Vec<MetaPool>) {
    let plane = Arc::new(SharedMetaPlane::new());
    let slot = plane.add_pool();
    plane.adopt(slot, boot).expect("boot ranges disjoint");
    let pools = (0..n)
        .map(|i| {
            let mut p = MetaPool::new(&format!("smp{i}"), false, true, None);
            p.bind_shared(&plane, slot);
            p
        })
        .collect();
    (plane, pools)
}

/// Deterministic seeded schedules: `k` logical vCPUs interleave
/// register / drop / checked-load steps chosen by an LCG, and every
/// checked load is compared against a model registry. A hit the model
/// says is dead is a stale-epoch answer (missed use-after-free); a miss
/// the model says is live is a lost registration. Both are fatal.
#[test]
fn seeded_schedules_never_see_stale_epochs_or_miss_violations() {
    const STABLE: (u64, u64) = (0x1000, 0x1040);
    for vcpus in 2..=4usize {
        for seed in [1u64, 2, 3, 5, 8, 13, 21, 34] {
            let (_plane, mut pools) = shared_pools(vcpus, &[STABLE]);
            let mut live: HashSet<u64> = HashSet::new();
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut step = || {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                rng >> 33
            };
            for _ in 0..400 {
                let cpu = (step() as usize) % vcpus;
                let obj = 0x10_000 + (step() % 8) * 0x100; // 8 slots, 64B objects
                match step() % 4 {
                    // Register: succeeds iff the model says dead.
                    0 => {
                        let r = pools[cpu].reg_obj(obj, 64);
                        if live.insert(obj) {
                            r.unwrap_or_else(|e| panic!("seed {seed}: lost registration: {e}"));
                        } else {
                            let e = r.expect_err("double registration must fail");
                            assert_eq!(e.kind, CheckKind::BadRegistration);
                        }
                    }
                    // Drop: succeeds iff the model says live.
                    1 => {
                        let r = pools[cpu].drop_obj(obj);
                        if live.remove(&obj) {
                            r.unwrap_or_else(|e| panic!("seed {seed}: lost drop: {e}"));
                        } else {
                            let e = r.expect_err("freeing a dead object must fail");
                            assert_eq!(e.kind, CheckKind::IllegalFree);
                        }
                    }
                    // Checked load on a churn object: pass iff live.
                    2 => {
                        let r = pools[cpu].ls_check(obj + 8);
                        if live.contains(&obj) {
                            r.unwrap_or_else(|e| {
                                panic!("seed {seed}: checked load lost a live object: {e}")
                            });
                        } else {
                            assert!(
                                r.is_err(),
                                "seed {seed}: stale hit on dead {obj:#x} (missed violation)"
                            );
                        }
                    }
                    // Checked load on the stable boot object: always live,
                    // from every vCPU, at every epoch.
                    _ => {
                        pools[cpu]
                            .ls_check(STABLE.0 + 0x10)
                            .expect("stable object must stay visible");
                    }
                }
            }
            // Every vCPU sees the final model state.
            for (i, p) in pools.iter_mut().enumerate() {
                for slot in 0..8u64 {
                    let obj = 0x10_000 + slot * 0x100;
                    let r = p.ls_check(obj + 8);
                    assert_eq!(
                        r.is_ok(),
                        live.contains(&obj),
                        "seed {seed}: vCPU {i} disagrees with model on {obj:#x}"
                    );
                }
            }
        }
    }
}

/// Free-running race: one writer vCPU churns register/drop while reader
/// vCPUs hammer checked loads through their own `MetaPool` clones. The
/// stable object must never miss; after the writer quiesces with the
/// churn object dropped, a hit on it would be a stale-epoch answer.
#[test]
fn racing_checked_loads_never_use_stale_metadata() {
    const STABLE: (u64, u64) = (0x1000, 0x1040);
    const CHURN: u64 = 0x8000;
    for readers in [1usize, 3] {
        let (plane, mut pools) = shared_pools(readers + 1, &[STABLE]);
        let mut writer_pool = pools.pop().unwrap();
        let quiesced = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            let q = quiesced.clone();
            let p = plane.clone();
            s.spawn(move || {
                for _ in 0..300 {
                    writer_pool.reg_obj(CHURN, 32).expect("churn register");
                    writer_pool.drop_obj(CHURN).expect("churn drop");
                }
                let _ = p; // plane outlives the writer's bindings
                q.store(1, Ordering::Release);
            });
            for mut pool in pools {
                let q = quiesced.clone();
                s.spawn(move || {
                    while q.load(Ordering::Acquire) == 0 {
                        pool.ls_check(STABLE.0 + 8)
                            .expect("stable object must never miss");
                    }
                    // Writer done, churn object dead: a passing check
                    // here means a reader used retired metadata.
                    assert!(
                        pool.ls_check(CHURN + 8).is_err(),
                        "stale hit on dropped churn object"
                    );
                    assert!(pool.ls_check(STABLE.0 + 8).is_ok());
                });
            }
        });
        // All snapshots pinned by exited vCPUs have been reclaimed.
        assert_eq!(plane.retired_live(), 0);
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
        let mut smp = SmpMachine::new(template);
        assert!(smp.plane().is_some());
        smp.run(jobs)
    };
    let a = run();
    let b = run();
    assert!(a.failures().is_empty(), "failures: {:?}", a.failures());
    assert_eq!(a.jobs.len(), 6);
    assert!(a.final_epoch > 0, "shared plane saw no publishes");
    assert_eq!(a.retired_snapshots, 0, "snapshots leaked past quiescence");
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
    // So is the split between MRU hits and snapshot layers, and every
    // job's own counters: each vCPU publishes only to its own slot range,
    // and a publish on one slot never kills another slot's MRU lines, so
    // a sibling's registrations and drops cannot reach a job's lookups.
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

/// The merged-machine equivalence key for SMP resume probes: a resumed
/// member rebinds its pools to the plane with empty MRU lines, so a probe
/// the uninterrupted run answered from the MRU may be answered by the
/// slot snapshot after the cut; only the `cache_hits + page_hits` *sum*
/// is stable between an uninterrupted run and its resumed twin.
fn smp_key(s: &VmStats) -> VmStats {
    let mut k = (*s).equivalence_key();
    k.cache_hits += k.page_hits;
    k.page_hits = 0;
    k
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
            smp_key(&a.stats),
            smp_key(&b.stats),
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
/// sharding the check path behind the per-slot published plane can neither
/// open nor close a detection gap.
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
