//! Deterministic machine-level fault-injection campaign with blast-radius
//! measurement (DESIGN.md §4.3/§4.5), snapshot-forked (DESIGN.md §4.6).
//!
//! Every [`FaultClass`] × seed × workload cell is run on **two arms**:
//!
//! * `flat`   — the recovery kernel with a single boot-time domain,
//! * `nested` — the kernel that wraps every syscall and the IRQ dispatch
//!   path in its own recovery domain (graceful degradation).
//!
//! Both arms use the same deferred fault plans (`with_defer`), so the
//! modelled faults land inside handler bodies — on the nested arm that
//! is inside the per-syscall domain. After each run the campaign disarms
//! the injector and probes the machine with a fixed syscall workload to
//! measure the blast radius: how many syscalls still answer, how many
//! were degraded to `-ENOSYS`, how many threads were stranded, and at
//! what domain depth the faults were contained.
//!
//! **Snapshot forking.** Fault plans only act at user→kernel traps and
//! the boot runs entirely in kernel mode, so every cell of one
//! (arm, workload, budget) column shares a bit-identical post-boot
//! machine. The campaign therefore boots each column **once** with a
//! passive [`DropRecorder`] attached, pauses at the first user
//! instruction ([`boot_user_paused`]), snapshots the machine
//! ([`Vm::snapshot`]), and *forks* every (class × seed) run from the
//! in-memory image: fresh VM + fresh plan, [`Vm::restore`], replay the
//! recorded boot-time pool drops into the plan
//! ([`FaultPlan::replay_drops`], so `StaleUse` learns the same
//! use-after-free candidates a re-booted machine would), then
//! [`Vm::run`]. A fork-vs-reboot cross-check cell per arm gates that the
//! shortcut is byte-identical; `--verify-reboot` extends the check to
//! every cell.
//!
//! **Crash forensics.** Every machine of the single-CPU grid runs with
//! an always-on [`FlightRecorder`] and per-cell crash capture: any
//! machine death (halt 41/42, fuel exhaustion, escape) drops a crash
//! bundle named after its grid cell into `target/sva-dbg` (override with
//! `SVA_DBG_DIR`). After the grid, every halt bundle is replayed via
//! `sva_kernel::postmortem` and must reproduce the same halt code,
//! resume code and console bit-for-bit — the `svadbg` inspector reads
//! the same bundles offline.
//!
//! **SMP arm.** After the single-CPU grid, the same 6-class grid runs
//! as concurrent job batches on a `--vcpus`-wide (default 4) nested
//! [`SmpMachine`] whose vCPUs each check against their own fork's
//! metapools (DESIGN.md §4.9) — proving containment survives real thread
//! interleaving of whole kernels. Any death there drops a
//! bundle whose `cpu` field names the faulting vCPU. These bundles carry
//! no flight tail: `SmpMachine` forks its vCPUs as `Vm<NullTracer>`
//! (`prepare_fork` → `Vm::fork_for_cpu`), so no recorder flies there.
//!
//! A JSON report lands in `target/sva-inject/faultcamp.json` (override
//! the directory with `SVA_INJECT_DIR`). Exit status is nonzero on any
//! panic, escaped safety violation, determinism failure, fork/reboot
//! divergence, nested-arm machine death, unresponsive nested-arm
//! probe, crash-bundle replay divergence, or SMP-arm death/escape, so
//! CI gates on it.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sva_inject::{DropRecorder, FaultClass, FaultPlan, PROBE_DEFER};
use sva_kernel::harness::{
    boot_user, boot_user_paused, make_vm_nested, make_vm_nested_patched, make_vm_nested_traced,
    make_vm_recovering_traced, pack_arg, USER_HEAP_BASE,
};
use sva_kernel::postmortem::{check_reproduction, replay};
use sva_kernel::{health_state, sysd_name, H_DEGRADED, H_LIVE, H_PROBATION, H_RETIRED, SYSCALLS};
use sva_vm::{
    CrashBundle, FlightRecorder, Mode, ResumeCode, SmpJob, SmpMachine, Vm, VmConfig, VmError,
    VmExit, VmStats,
};

/// Single-CPU grid machines carry the always-on flight recorder so crash
/// bundles embed a black-box event tail.
type CampVm = Vm<FlightRecorder>;

const SEEDS: [u64; 6] = [1, 2, 3, 5, 8, 13];
const FUEL: u64 = 3_000_000;
/// Inject on every other trap.
const PERIOD: u64 = 2;
/// Scoped violation budget for the main grid (the degradation sub-run
/// drops it to 1 so a single violation poisons).
const BUDGET: u32 = 3;

const WORKLOADS: [(&str, u64, u64, u64); 4] = [
    ("user_getpid_loop", 200, 0, 0),
    ("user_openclose_loop", 60, 0, 0),
    ("user_pipe_loop", 40, 64, 0),
    ("user_write_loop", 80, 128, 0),
];

/// Post-fault serviceability probes: non-blocking, non-spawning syscalls
/// covering process, fs, net and time subsystems. A probe is *responsive*
/// when the call returns a value (including error codes) instead of
/// halting the machine.
const PROBES: [(&str, &[u64]); 9] = [
    ("sys_getpid", &[]),
    ("sys_getrusage", &[USER_HEAP_BASE]),
    ("sys_gettimeofday", &[USER_HEAP_BASE]),
    ("sys_sbrk", &[0]),
    ("sys_lseek", &[0, 0]),
    ("sys_close", &[7]),
    ("sys_kill", &[7, 1]),
    ("sys_socket", &[]),
    ("sys_write", &[1, USER_HEAP_BASE, 8]),
];

/// proc_table geometry (build.rs `proc_t`): 8 scalar fields + 8 signal
/// handlers + 8 fds, 8 bytes each; state is the first field. Validated
/// at startup against a clean run (`threads_stranded == 0`).
const NPROC: u64 = 8;
const PROC_STRIDE: u64 = 24 * 8;
const P_FREE: u64 = 0;
const P_ZOMBIE: u64 = 4;

const ENOSYS: i64 = -38;
const EFAULT: i64 = -14;

/// Repair-arm timeline length: IRQ ticks driven (and probe sweeps run)
/// after the transient poison. Long enough to cover the initial repair
/// backoff (`REPAIR_DELAY_INIT`) plus the probation window many times
/// over, so a healthy repair path leaves only a handful of fenced
/// probes in the availability denominator.
const REPAIR_TIMELINE: u64 = 50;

/// Repair-arm targets: probe syscalls whose handlers dereference
/// through a metapool check, so a poisoned pool deterministically
/// degrades them. Targets whose discovery probe does not fault are
/// skipped (and logged) rather than failing the arm.
const REPAIR_TARGETS: [(&str, &[u64]); 7] = [
    ("sys_getrusage", &[USER_HEAP_BASE]),
    ("sys_gettimeofday", &[USER_HEAP_BASE]),
    ("sys_sbrk", &[0]),
    ("sys_lseek", &[0, 0]),
    ("sys_kill", &[7, 1]),
    ("sys_socket", &[]),
    ("sys_write", &[1, USER_HEAP_BASE, 8]),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arm {
    Flat,
    Nested,
}

impl Arm {
    fn name(self) -> &'static str {
        match self {
            Arm::Flat => "flat",
            Arm::Nested => "nested",
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq, Default)]
struct Blast {
    /// Violations caught by a per-syscall / IRQ domain (`recov_sysd_count`).
    contained_syscall: u64,
    /// Violations that fell through to the boot domain (`recov_count`).
    contained_boot: u64,
    /// Probes that answered (any return value) after the faults.
    probes_responsive: u64,
    /// Probes that answered `-ENOSYS` (degraded syscalls, nested only).
    probes_degraded: u64,
    /// Probes that halted the machine or escaped as an error.
    probes_dead: u64,
    /// Syscall health-table entries not in the live state — degraded,
    /// in probation, or retired (nested only, DESIGN.md §4.8).
    syscalls_degraded: u64,
    /// Live (non-FREE, non-ZOMBIE) processes stranded beyond the clean
    /// baseline of the same workload.
    threads_stranded: u64,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct RunResult {
    injected: u64,
    stats: VmStats,
    outcome: Outcome,
    blast: Blast,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Outcome {
    /// The workload ran to completion (any exit value).
    Completed,
    /// The recovery handler halted after a pool was poisoned (abort 41).
    HaltedPoisoned,
    /// The recovery handler halted with nothing to resume (abort 42).
    HaltedClean,
    /// `Vm::run` returned a structured non-safety error (e.g. fuel).
    StructuredError(String),
    /// A safety violation escaped the recovery domain — campaign failure.
    EscapedSafety(String),
}

fn make_vm(arm: Arm, cfg: VmConfig) -> CampVm {
    match arm {
        Arm::Flat => make_vm_recovering_traced(cfg, FlightRecorder::default()),
        Arm::Nested => make_vm_nested_traced(cfg, FlightRecorder::default()),
    }
}

/// Metapool ids with complete points-to info — the probe targets. The
/// flat and nested images analyze to different pool tables, so targets
/// are computed per arm.
fn complete_pools(arm: Arm) -> Vec<u32> {
    let vm = make_vm(arm, VmConfig::default());
    (0..vm.pools.len() as u32)
        .filter(|&i| vm.pools.pool(sva_rt::MetaPoolId(i)).complete)
        .collect()
}

/// Live (non-FREE, non-ZOMBIE) entries in the guest's process table.
fn live_procs(vm: &mut CampVm) -> u64 {
    let Some(base) = vm.global_address("proc_table") else {
        return 0;
    };
    (0..NPROC)
        .filter(|i| {
            let st = vm
                .mem
                .read_uint(base + i * PROC_STRIDE, 8, Mode::Kernel)
                .unwrap_or(0);
            st != P_FREE && st != P_ZOMBIE
        })
        .count() as u64
}

/// Stranded-thread baseline: what a clean (fault-free) run of the
/// workload leaves in the process table.
fn clean_baseline(arm: Arm, workload: (&str, u64, u64, u64)) -> u64 {
    let mut vm = make_vm(
        arm,
        VmConfig {
            fuel: FUEL,
            ..Default::default()
        },
    );
    let (prog, iters, size, mode) = workload;
    let _ = boot_user(&mut vm, prog, pack_arg(iters, size, mode));
    live_procs(&mut vm)
}

/// Runs the post-fault probe workload and fills in the blast record.
fn measure_blast(vm: &mut CampVm, arm: Arm, baseline: u64) -> Blast {
    vm.disarm_faults();
    // A dying probe must not overwrite the real death's bundle.
    vm.disable_crash_capture();
    let mut b = Blast {
        contained_syscall: vm.read_global_u64("recov_sysd_count").unwrap_or(0),
        contained_boot: vm.read_global_u64("recov_count").unwrap_or(0),
        threads_stranded: live_procs(vm).saturating_sub(baseline),
        ..Default::default()
    };
    if arm == Arm::Nested {
        if let Some(base) = vm.global_address("subsys_health") {
            b.syscalls_degraded = (0..SYSCALLS.len() as u64)
                .filter(|i| {
                    let word = vm.mem.read_uint(base + i * 8, 8, Mode::Kernel).unwrap_or(0);
                    health_state(word) != H_LIVE as u64
                })
                .count() as u64;
        }
    }
    for (handler, args) in PROBES {
        let name = match arm {
            Arm::Flat => handler.to_string(),
            Arm::Nested => sysd_name(handler),
        };
        match vm.call(&name, args) {
            Ok(VmExit::Returned(v)) => {
                b.probes_responsive += 1;
                if v as i64 == ENOSYS {
                    b.probes_degraded += 1;
                }
            }
            Ok(VmExit::Halted(_)) | Err(_) => b.probes_dead += 1,
        }
    }
    b
}

/// A paused post-boot machine image plus the pool drops the boot emitted
/// (replayed into each fork's fresh plan so `StaleUse` learns the same
/// use-after-free candidates a re-booted machine would).
struct BootImage {
    bytes: Vec<u8>,
    boot_drops: Vec<(u32, u64)>,
}

/// Boots one (arm, workload, budget) column to the first user instruction
/// and snapshots it. Panics if the boot never reaches user mode — every
/// campaign workload must, so that is a harness bug, not a fault effect.
fn boot_image(arm: Arm, workload: (&str, u64, u64, u64), budget: u32) -> BootImage {
    let rec = Arc::new(DropRecorder::new());
    let cfg = VmConfig {
        fuel: FUEL,
        violation_budget: budget,
        fault_hook: Some(rec.clone()),
        ..Default::default()
    };
    let mut vm = make_vm(arm, cfg);
    let (prog, iters, size, mode) = workload;
    match boot_user_paused(&mut vm, prog, pack_arg(iters, size, mode)) {
        Ok(None) => BootImage {
            bytes: vm.snapshot(),
            boot_drops: rec.drops(),
        },
        other => panic!("{prog} boot never reached user mode: {other:?}"),
    }
}

/// Maps a finished workload run to its campaign outcome and blast record.
fn finish_run(
    vm: &mut CampVm,
    arm: Arm,
    baseline: u64,
    r: Result<VmExit, VmError>,
    plan: &FaultPlan,
) -> RunResult {
    let outcome = match r {
        Ok(VmExit::Halted(41)) => Outcome::HaltedPoisoned,
        Ok(VmExit::Halted(42)) => Outcome::HaltedClean,
        Ok(_) => Outcome::Completed,
        Err(VmError::Safety(e)) => Outcome::EscapedSafety(e.to_string()),
        Err(e) => Outcome::StructuredError(e.to_string()),
    };
    let blast = measure_blast(vm, arm, baseline);
    RunResult {
        injected: plan.injected(),
        stats: vm.stats(),
        outcome,
        blast,
    }
}

/// Reference cell for the fork/reboot cross-check: boot the kernel
/// freshly under the armed plan.
#[allow(clippy::too_many_arguments)]
fn run_one_reboot(
    arm: Arm,
    class: FaultClass,
    seed: u64,
    workload: (&str, u64, u64, u64),
    budget: u32,
    baseline: u64,
    targets: &[u32],
    tag: &str,
) -> Option<RunResult> {
    let targets = targets.to_vec();
    let tag = tag.to_string();
    catch_unwind(AssertUnwindSafe(move || {
        let plan = Arc::new(FaultPlan::new(class, seed, PERIOD, targets).with_defer(PROBE_DEFER));
        let cfg = VmConfig {
            fuel: FUEL,
            violation_budget: budget,
            fault_hook: Some(plan.clone()),
            ..Default::default()
        };
        let mut vm = make_vm(arm, cfg);
        vm.enable_crash_capture(Some(&bundle_dir()), &tag);
        let (prog, iters, size, mode) = workload;
        let r = boot_user(&mut vm, prog, pack_arg(iters, size, mode));
        finish_run(&mut vm, arm, baseline, r, &plan)
    }))
    .ok()
}

/// Snapshot-forked cell: restore the shared post-boot image into the
/// column's scratch machine (already translated — forks skip both the
/// kernel boot *and* the per-cell VM construction), arm a fresh plan,
/// replay the boot-time drops, and resume. The scratch VM carries no
/// state across cells: restore rewrites all of it.
#[allow(clippy::too_many_arguments)]
fn run_one_forked(
    vm: &mut CampVm,
    arm: Arm,
    class: FaultClass,
    seed: u64,
    baseline: u64,
    targets: &[u32],
    image: &BootImage,
    tag: &str,
) -> Option<RunResult> {
    let targets = targets.to_vec();
    catch_unwind(AssertUnwindSafe(move || {
        let plan = Arc::new(FaultPlan::new(class, seed, PERIOD, targets).with_defer(PROBE_DEFER));
        vm.restore(&image.bytes)
            .unwrap_or_else(|e| panic!("boot image rejected: {e}"));
        vm.enable_crash_capture(Some(&bundle_dir()), tag);
        vm.arm_faults(plan.clone());
        plan.replay_drops(&image.boot_drops);
        let r = vm.run();
        finish_run(vm, arm, baseline, r, &plan)
    }))
    .ok()
}

/// A scratch machine for forked cells of one (arm, budget) column. The
/// violation budget is part of the image fingerprint, so each budget
/// needs its own scratch machine.
fn scratch_vm(arm: Arm, budget: u32) -> CampVm {
    make_vm(
        arm,
        VmConfig {
            fuel: FUEL,
            violation_budget: budget,
            ..Default::default()
        },
    )
}

/// Everything one arm's grid needs: probe targets, per-workload stranded
/// baselines and the shared post-boot images.
struct ArmCtx {
    arm: Arm,
    targets: Vec<u32>,
    baselines: [u64; WORKLOADS.len()],
    /// `(workload index, image)` pairs at the main-grid budget.
    images: Vec<(usize, BootImage)>,
}

impl ArmCtx {
    fn build(arm: Arm) -> ArmCtx {
        let targets = complete_pools(arm);
        let baselines = std::array::from_fn(|i| clean_baseline(arm, WORKLOADS[i]));
        let images = (0..WORKLOADS.len())
            .map(|wi| (wi, boot_image(arm, WORKLOADS[wi], BUDGET)))
            .collect();
        ArmCtx {
            arm,
            targets,
            baselines,
            images,
        }
    }
}

fn image_for(images: &[(usize, BootImage)], wi: usize) -> &BootImage {
    images
        .iter()
        .find(|(i, _)| *i == wi)
        .map(|(_, img)| img)
        .expect("boot image for workload")
}

/// Deterministic grid-cell identity, used as the crash-bundle filename
/// stem so every dying cell leaves a stable, replayable artifact.
fn cell_tag(arm: Arm, class: FaultClass, seed: u64, wi: usize, budget: u32) -> String {
    format!(
        "{}-{}-s{}-w{}-b{}",
        arm.name(),
        class.name(),
        seed,
        wi,
        budget
    )
}

/// Runs one grid cell, forked from the column's boot image into
/// `scratch`, the column's reusable machine (must match `budget`). With
/// `verify_reboot` the cell also runs on a freshly booted machine; a
/// divergence bumps `mismatches` (gated nonzero-exit in `main`).
#[allow(clippy::too_many_arguments)]
fn run_cell(
    verify_reboot: bool,
    ctx: &ArmCtx,
    scratch: &mut CampVm,
    class: FaultClass,
    seed: u64,
    wi: usize,
    budget: u32,
    images: &[(usize, BootImage)],
    mismatches: &mut u64,
    deaths: &mut BTreeSet<String>,
) -> Option<RunResult> {
    let baseline = ctx.baselines[wi];
    let tag = cell_tag(ctx.arm, class, seed, wi, budget);
    let result = run_one_forked(
        scratch,
        ctx.arm,
        class,
        seed,
        baseline,
        &ctx.targets,
        image_for(images, wi),
        &tag,
    );
    if verify_reboot {
        let r = run_one_reboot(
            ctx.arm,
            class,
            seed,
            WORKLOADS[wi],
            budget,
            baseline,
            &ctx.targets,
            &tag,
        );
        if result != r {
            *mismatches += 1;
            eprintln!(
                "FORK/REBOOT MISMATCH ({} {} seed {} workload {}):\n  fork:   {result:?}\n  reboot: {r:?}",
                ctx.arm.name(),
                class.name(),
                seed,
                WORKLOADS[wi].0,
            );
        }
    }
    if let Some(rr) = &result {
        if matches!(rr.outcome, Outcome::HaltedPoisoned | Outcome::HaltedClean) {
            deaths.insert(tag);
        }
    }
    result
}

#[derive(Default)]
struct Tally {
    runs: u64,
    injected: u64,
    recovered: u64,
    quarantined: u64,
    poisoned: u64,
    completed: u64,
    halted_poisoned: u64,
    halted_clean: u64,
    structured_errors: u64,
    escaped_safety: u64,
    panics: u64,
    // Blast-radius aggregates.
    contained_syscall: u64,
    contained_boot: u64,
    probes_responsive: u64,
    probes_degraded: u64,
    probes_dead: u64,
    syscalls_degraded: u64,
    threads_stranded: u64,
}

impl Tally {
    fn absorb(&mut self, r: &Option<RunResult>) {
        self.runs += 1;
        let Some(r) = r else {
            self.panics += 1;
            return;
        };
        self.injected += r.injected;
        self.recovered += r.stats.violations_recovered;
        self.quarantined += r.stats.pools_quarantined;
        self.poisoned += r.stats.pools_poisoned;
        self.contained_syscall += r.blast.contained_syscall;
        self.contained_boot += r.blast.contained_boot;
        self.probes_responsive += r.blast.probes_responsive;
        self.probes_degraded += r.blast.probes_degraded;
        self.probes_dead += r.blast.probes_dead;
        self.syscalls_degraded += r.blast.syscalls_degraded;
        self.threads_stranded += r.blast.threads_stranded;
        match &r.outcome {
            Outcome::Completed => self.completed += 1,
            Outcome::HaltedPoisoned => self.halted_poisoned += 1,
            Outcome::HaltedClean => self.halted_clean += 1,
            Outcome::StructuredError(_) => self.structured_errors += 1,
            Outcome::EscapedSafety(e) => {
                self.escaped_safety += 1;
                eprintln!("ESCAPED SAFETY VIOLATION: {e}");
            }
        }
    }

    fn machine_deaths(&self) -> u64 {
        self.halted_poisoned + self.halted_clean
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"runs\":{},\"faults_injected\":{},\"violations_recovered\":{},",
                "\"pools_quarantined\":{},\"pools_poisoned\":{},\"completed\":{},",
                "\"halted_poisoned\":{},\"halted_clean\":{},\"structured_errors\":{},",
                "\"escaped_safety\":{},\"panics\":{},",
                "\"contained_syscall\":{},\"contained_boot\":{},",
                "\"probes_responsive\":{},\"probes_degraded\":{},\"probes_dead\":{},",
                "\"syscalls_degraded\":{},\"threads_stranded\":{}}}"
            ),
            self.runs,
            self.injected,
            self.recovered,
            self.quarantined,
            self.poisoned,
            self.completed,
            self.halted_poisoned,
            self.halted_clean,
            self.structured_errors,
            self.escaped_safety,
            self.panics,
            self.contained_syscall,
            self.contained_boot,
            self.probes_responsive,
            self.probes_degraded,
            self.probes_dead,
            self.syscalls_degraded,
            self.threads_stranded,
        )
    }
}

// ---- repair arm (DESIGN.md §4.8) ----------------------------------------
//
// The grid above proves faults are *contained*; the repair arm proves the
// machine *heals*. Each cell transiently poisons the one pool a target
// syscall's handler checks (attributed to that syscall's subsystem, as a
// budget-exhausting violation under its domain would), trips the poison
// once so the subsystem degrades, then drives the IRQ tick — and with it
// the kernel's repair manager — while sweeping the full probe workload
// every tick. Availability is the fraction of post-fault probes serviced
// (answered with anything but the -ENOSYS fence); the repaired subsystem
// must finish the timeline live. A separate retire drill re-poisons the
// pool after every repair until the strike budget retires the subsystem,
// proving permanent -ENOSYS without machine death.

/// 1-based recovery-subsystem id of a syscall handler (build.rs layout).
fn subsys_of(handler: &str) -> u64 {
    SYSCALLS
        .iter()
        .position(|(_, h, _)| *h == handler)
        .unwrap_or_else(|| panic!("{handler} not in SYSCALLS")) as u64
        + 1
}

/// Health-machine state of subsystem `subsys` (H_LIVE..H_RETIRED).
fn subsys_state(vm: &mut CampVm, subsys: u64) -> u64 {
    let Some(base) = vm.global_address("subsys_health") else {
        return H_LIVE as u64;
    };
    let word = vm
        .mem
        .read_uint(base + (subsys - 1) * 8, 8, Mode::Kernel)
        .unwrap_or(0);
    health_state(word)
}

/// A fresh nested machine for one repair cell: budget 1, so a single
/// tripped violation poisons the target pool.
fn repair_vm() -> Option<CampVm> {
    let mut vm = make_vm(
        Arm::Nested,
        VmConfig {
            fuel: FUEL,
            violation_budget: 1,
            ..Default::default()
        },
    );
    boot_user(&mut vm, "user_hello", 0).ok()?;
    Some(vm)
}

/// Discovers which metapool `handler` checks against: poison every pool
/// on a scratch machine, trip the syscall, and read the attributed pool
/// out of the resume code. `None` when the handler never faults (no
/// pool-checked dereference) — such targets are skipped.
fn attributed_pool(handler: &str, args: &[u64]) -> Option<u32> {
    let mut vm = repair_vm()?;
    for i in 0..vm.pools.len() as u32 {
        vm.pools.pool_mut(sva_rt::MetaPoolId(i)).note_violation(1);
    }
    match vm.call(&sysd_name(handler), args) {
        Ok(VmExit::Returned(v)) if v as i64 == EFAULT => {}
        _ => return None,
    }
    ResumeCode::decode(vm.read_global_u64("recov_last_code").ok()?)?.pool
}

#[derive(Default)]
struct RepairTally {
    cells: u64,
    /// Cells whose target subsystem finished the timeline live again
    /// after at least one `sva.recover.repair`.
    repaired_subsystems: u64,
    probes_total: u64,
    probes_serviced: u64,
    /// Summed machine stats of the cells. Its `subsys_retired` must stay
    /// zero under default budgets.
    stats: VmStats,
    deaths: u64,
}

impl RepairTally {
    fn availability(&self) -> f64 {
        if self.probes_total == 0 {
            return 0.0;
        }
        self.probes_serviced as f64 / self.probes_total as f64
    }
}

/// One availability cell: degrade `handler` via a transient poison of
/// `pool`, then tick-and-probe through the repair. Returns false on a
/// machine death anywhere in the timeline.
fn run_repair_cell(t: &mut RepairTally, handler: &str, args: &[u64], pool: u32) -> bool {
    let Some(mut vm) = repair_vm() else {
        return false;
    };
    t.cells += 1;
    let subsys = subsys_of(handler);
    vm.pools
        .pool_mut(sva_rt::MetaPoolId(pool))
        .force_poison(subsys);
    // Trip the poison: the wrapped call catches the violation and the
    // subsystem degrades (-EFAULT now, fenced until repaired).
    let mut alive = matches!(
        vm.call(&sysd_name(handler), args),
        Ok(VmExit::Returned(v)) if v as i64 == EFAULT
    );
    for _ in 0..REPAIR_TIMELINE {
        // The IRQ tick advances the repair clock and runs the repair
        // manager's scan — exactly what a live machine's timer does.
        match vm.call("irqd_timer_tick", &[0]) {
            Ok(VmExit::Returned(_)) => {}
            _ => alive = false,
        }
        for (h, a) in PROBES {
            t.probes_total += 1;
            match vm.call(&sysd_name(h), a) {
                Ok(VmExit::Returned(v)) => {
                    if v as i64 != ENOSYS {
                        t.probes_serviced += 1;
                    }
                }
                Ok(VmExit::Halted(_)) | Err(_) => alive = false,
            }
        }
    }
    let s = vm.stats();
    t.stats.fold(&s);
    if s.repairs > 0 && subsys_state(&mut vm, subsys) == H_LIVE as u64 {
        t.repaired_subsystems += 1;
    }
    if !alive {
        t.deaths += 1;
    }
    alive
}

#[derive(Default)]
struct RetireDrill {
    /// The target reached the permanently-retired state.
    retired: bool,
    /// `sva.recover.probation` verdict-2 count (kernel-side retirement).
    stats_retired: u64,
    /// Retired target answers -ENOSYS (not a halt, not a fault).
    post_retire_enosys: bool,
    /// Every other probe still serviced after the retirement.
    machine_alive: bool,
    /// Poison trips it took to exhaust the strike budget.
    trips: u64,
}

/// Retire drill: re-poison the target's pool after every repair until
/// the strike budget permanently retires the subsystem. The machine
/// must survive with the target fenced to -ENOSYS and everything else
/// serviced.
fn run_retire_drill(handler: &str, args: &[u64], pool: u32) -> RetireDrill {
    let mut d = RetireDrill::default();
    let Some(mut vm) = repair_vm() else {
        return d;
    };
    let subsys = subsys_of(handler);
    for _ in 0..200 {
        match subsys_state(&mut vm, subsys) {
            s if s == H_RETIRED as u64 => break,
            s if s == H_DEGRADED as u64 => {
                // Waiting out the backoff; the tick drives the repair.
                let _ = vm.call("irqd_timer_tick", &[0]);
            }
            s if s == H_LIVE as u64 || s == H_PROBATION as u64 => {
                d.trips += 1;
                vm.pools
                    .pool_mut(sva_rt::MetaPoolId(pool))
                    .force_poison(subsys);
                let _ = vm.call(&sysd_name(handler), args);
            }
            _ => break,
        }
    }
    d.retired = subsys_state(&mut vm, subsys) == H_RETIRED as u64;
    d.stats_retired = vm.stats().subsys_retired;
    d.post_retire_enosys = matches!(
        vm.call(&sysd_name(handler), args),
        Ok(VmExit::Returned(v)) if v as i64 == ENOSYS
    );
    d.machine_alive = PROBES
        .iter()
        .filter(|(h, _)| *h != handler)
        .all(|(h, a)| matches!(vm.call(&sysd_name(h), a), Ok(VmExit::Returned(_))));
    d
}

// ---- SMP arm (DESIGN.md §4.9) -------------------------------------------
//
// The grid and repair arms prove containment and healing on a single
// CPU; the SMP arm proves both survive *concurrency*. Each fault class
// becomes one job batch on a `--vcpus`-wide nested machine: every
// (seed, workload) cell is an [`SmpJob`] that arms its own plan (the
// same per-cell determinism the grid has) and enables crash capture, so
// an unexpected death drops a bundle whose `cpu` field names the
// faulting vCPU (`svadbg` prints it). Each vCPU checks against its own
// fork's metapools, so the injected violations run the 1-vCPU check
// path under real thread interleaving. Gates: zero
// escaped safety violations and zero machine deaths anywhere in the
// fleet, with a floor on injected faults so an accidentally-disarmed
// arm cannot pass vacuously.

/// Seeds for the SMP arm: a subset of the grid's, to bound runtime —
/// the class × workload coverage stays full.
const SMP_SEEDS: [u64; 3] = [1, 2, 3];

#[derive(Default)]
struct SmpTally {
    vcpus: u32,
    jobs: u64,
    injected: u64,
    recovered: u64,
    completed: u64,
    /// Jobs that ended in halt 41/42 — a machine death, gated zero.
    deaths: u64,
    /// Safety violations that escaped a recovery domain, gated zero.
    escapes: u64,
    structured_errors: u64,
    /// Jobs claimed off another vCPU's queue (scheduler health signal).
    steals: u64,
}

impl SmpTally {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"vcpus\":{},\"jobs\":{},\"faults_injected\":{},",
                "\"violations_recovered\":{},\"completed\":{},",
                "\"machine_deaths\":{},\"escaped_safety\":{},",
                "\"structured_errors\":{},\"steals\":{}}}"
            ),
            self.vcpus,
            self.jobs,
            self.injected,
            self.recovered,
            self.completed,
            self.deaths,
            self.escapes,
            self.structured_errors,
            self.steals,
        )
    }
}

/// Runs the 6-class grid as SMP job batches and tallies the outcomes.
fn run_smp_arm(vcpus: u32, targets: &[u32]) -> SmpTally {
    let mut t = SmpTally {
        vcpus,
        ..Default::default()
    };
    let bdir = bundle_dir();
    for class in FaultClass::ALL {
        let template = make_vm_nested(VmConfig {
            fuel: FUEL,
            violation_budget: BUDGET,
            vcpus,
            ..Default::default()
        });
        let mut machine = SmpMachine::new(template);
        let mut jobs = Vec::new();
        let mut plans = Vec::new();
        for seed in SMP_SEEDS {
            for (wi, (prog, iters, size, wmode)) in WORKLOADS.iter().enumerate() {
                let addr = machine
                    .template()
                    .func_address(prog)
                    .unwrap_or_else(|| panic!("no user program {prog}"));
                let plan = Arc::new(
                    FaultPlan::new(class, seed, PERIOD, targets.to_vec()).with_defer(PROBE_DEFER),
                );
                plans.push(plan.clone());
                let tag = format!(
                    "smp{vcpus}-{}",
                    cell_tag(Arm::Nested, class, seed, wi, BUDGET)
                );
                let dir = bdir.clone();
                jobs.push(
                    SmpJob::boot_user(tag.clone(), addr, pack_arg(*iters, *size, *wmode))
                        .with_setup(move |vm| {
                            vm.enable_crash_capture(Some(&dir), &tag);
                            vm.arm_faults(plan.clone());
                        }),
                );
            }
        }
        let r = machine.run(jobs);
        t.jobs += r.jobs.len() as u64;
        t.injected += plans.iter().map(|p| p.injected()).sum::<u64>();
        t.recovered += r.merged.violations_recovered;
        t.steals += r.cpus.iter().map(|c| c.steals).sum::<u64>();
        let mut class_deaths = 0u64;
        for j in &r.jobs {
            match &j.exit {
                Ok(VmExit::Halted(41 | 42)) => {
                    class_deaths += 1;
                    t.deaths += 1;
                    eprintln!(
                        "SMP MACHINE DEATH: {} on vCPU {}: {:?}",
                        j.label, j.cpu, j.exit
                    );
                }
                Ok(_) => t.completed += 1,
                Err(VmError::Safety(e)) => {
                    t.escapes += 1;
                    eprintln!(
                        "SMP ESCAPED SAFETY VIOLATION: {} on vCPU {}: {e}",
                        j.label, j.cpu
                    );
                }
                Err(e) => {
                    t.structured_errors += 1;
                    eprintln!("SMP structured error: {} on vCPU {}: {e}", j.label, j.cpu);
                }
            }
        }
        println!(
            "smp({})  {:18} jobs {:3}  injected {:6}  recovered {:6}  deaths {:3}  steals {:4}",
            vcpus,
            class.name(),
            r.jobs.len(),
            plans.iter().map(|p| p.injected()).sum::<u64>(),
            r.merged.violations_recovered,
            class_deaths,
            r.cpus.iter().map(|c| c.steals).sum::<u64>(),
        );
    }
    t
}

// ---- upgrade arm (DESIGN.md §4.10) ---------------------------------------
//
// The crash-consistency differential campaign behind `--upgrade`: every
// cell runs a fault-injected workload twice — once straight to terminal
// state, and once interrupted mid-flight by a snapshot that is dragged
// through the migration machinery (downgraded to the previous format,
// upcast back, and separately adopted by a *compatible rebuild* of the
// kernel) before a twin machine replays the rest. If migration preserves
// state exactly, the twin's terminal fingerprint (`VmStats::
// equivalence_key`, console bytes, resume code, faults injected) is
// byte-identical to the original's — across all 6 fault classes, so the
// cut lands inside syscalls, mid-unwind, with armed probes and skews and
// IRQ bursts pending. A coordinated-quiesce probe then exercises
// `SmpMachine::quiesce`/`resume_quiesced` at `--vcpus` and gates on the
// resumed fleet matching the quiesced run job-for-job.

/// Workload-run instruction boundary the twin is cut at — mid-workload
/// for every campaign workload (the boot image pauses at the first user
/// instruction, so this counts user-and-syscall steps only).
const UPGRADE_CUT: u64 = 5_000;
/// Workload indices the upgrade grid runs (syscall-light and
/// syscall-heavy).
const UPGRADE_WORKLOADS: [usize; 2] = [0, 3];
/// `KernelOptions::patch_salt` of the modelled compatible rebuild.
const PATCH_SALT: u64 = 0x5eed;

/// Plain (untraced) machines: the upgrade arm compares terminal
/// fingerprints across machines, and the flight recorder is host-side
/// state a snapshot deliberately does not carry.
fn upgrade_vm(vcpus: u32) -> Vm {
    make_vm_nested(VmConfig {
        fuel: FUEL,
        violation_budget: BUDGET,
        vcpus,
        ..Default::default()
    })
}

/// Terminal fingerprint of one upgrade-arm run; twins must match the
/// original field-for-field.
#[derive(Clone, Debug, PartialEq)]
struct UpgradeOutcome {
    exit: String,
    stats: VmStats,
    console: Vec<u8>,
    resume_code: u64,
    injected: u64,
}

fn upgrade_finish(vm: &mut Vm, exit: &Result<VmExit, VmError>, plan: &FaultPlan) -> UpgradeOutcome {
    UpgradeOutcome {
        exit: format!("{exit:?}"),
        stats: vm.stats().equivalence_key(),
        console: vm.console.clone(),
        resume_code: vm.read_global_u64("recov_last_code").unwrap_or(0),
        injected: plan.injected(),
    }
}

#[derive(Default)]
struct UpgradeTally {
    cells: u64,
    /// Cells whose twin was genuinely cut mid-flight (the interesting
    /// ones; gated nonzero).
    midflight_cells: u64,
    /// Cells whose workload finished before the cut (compared directly,
    /// no migration exercised).
    short_cells: u64,
    injected: u64,
    twin_divergences: u64,
    crossbuild_divergences: u64,
    migrate_errors: u64,
    migrate_panics: u64,
    migrations: u64,
    migrate_ns: u128,
    image_bytes: u64,
}

/// One twin leg: migrate `cut_img` into `vm` (optionally via a
/// downgrade to format v3 first, so the v3→v4 upcaster runs on every
/// cell), re-arm a fresh plan carrying the original plan's exported
/// state, and replay to terminal.
#[allow(clippy::too_many_arguments)]
fn upgrade_leg(
    vm: &mut Vm,
    cut_img: &[u8],
    plan_state: &(u64, Vec<(u32, u64)>),
    class: FaultClass,
    seed: u64,
    targets: &[u32],
    via_v3: bool,
    t: &mut UpgradeTally,
    tag: &str,
) -> Option<UpgradeOutcome> {
    let input = if via_v3 {
        match sva_vm::reencode_at(cut_img, 3) {
            Ok(v) => v,
            Err(e) => {
                t.migrate_errors += 1;
                eprintln!("MIGRATE ERROR {tag} (downgrade to v3): {e}");
                return None;
            }
        }
    } else {
        cut_img.to_vec()
    };
    let t0 = Instant::now();
    match catch_unwind(AssertUnwindSafe(|| vm.restore_migrated(&input))) {
        Err(_) => {
            t.migrate_panics += 1;
            eprintln!("MIGRATE PANIC {tag}");
            None
        }
        Ok(Err(e)) => {
            t.migrate_errors += 1;
            eprintln!("MIGRATE ERROR {tag}: {e}");
            None
        }
        Ok(Ok(_report)) => {
            t.migrations += 1;
            t.migrate_ns += t0.elapsed().as_nanos();
            let plan = Arc::new(
                FaultPlan::new(class, seed, PERIOD, targets.to_vec()).with_defer(PROBE_DEFER),
            );
            plan.restore_state(plan_state.clone());
            vm.arm_faults(plan.clone());
            let r = vm.run();
            Some(upgrade_finish(vm, &r, &plan))
        }
    }
}

/// The differential grid: 6 fault classes × the campaign seeds × two
/// workloads, each cell original-vs-migrated-twin.
fn run_upgrade_grid() -> UpgradeTally {
    let mut t = UpgradeTally::default();
    let targets = complete_pools(Arm::Nested);
    let mut orig = upgrade_vm(1);
    let mut twin = upgrade_vm(1);
    let mut patched = make_vm_nested_patched(
        VmConfig {
            fuel: FUEL,
            violation_budget: BUDGET,
            ..Default::default()
        },
        PATCH_SALT,
    );
    let images: Vec<(usize, BootImage)> = UPGRADE_WORKLOADS
        .iter()
        .map(|&wi| (wi, boot_image(Arm::Nested, WORKLOADS[wi], BUDGET)))
        .collect();
    for class in FaultClass::ALL {
        let mut class_div = 0u64;
        for seed in SEEDS {
            for (wi, image) in &images {
                t.cells += 1;
                let tag = format!("upgrade-{}-s{seed}-w{wi}", class.name());
                let mk_plan = || {
                    Arc::new(
                        FaultPlan::new(class, seed, PERIOD, targets.clone())
                            .with_defer(PROBE_DEFER),
                    )
                };
                // Original: straight to terminal state.
                let plan = mk_plan();
                orig.restore(&image.bytes)
                    .unwrap_or_else(|e| panic!("boot image rejected: {e}"));
                orig.arm_faults(plan.clone());
                plan.replay_drops(&image.boot_drops);
                let r = orig.run();
                let want = upgrade_finish(&mut orig, &r, &plan);
                t.injected += want.injected;
                // Twin: identical prefix, cut mid-flight.
                let plan2 = mk_plan();
                twin.restore(&image.bytes)
                    .unwrap_or_else(|e| panic!("boot image rejected: {e}"));
                twin.arm_faults(plan2.clone());
                plan2.replay_drops(&image.boot_drops);
                match twin.run_steps(UPGRADE_CUT) {
                    Ok(Some(exit)) => {
                        // Terminal before the cut: nothing to migrate,
                        // but the two full runs must still agree.
                        t.short_cells += 1;
                        let got = upgrade_finish(&mut twin, &Ok(exit), &plan2);
                        if got != want {
                            t.twin_divergences += 1;
                            class_div += 1;
                            eprintln!(
                                "TWIN DIVERGENCE {tag} (short):\n  want {want:?}\n  got  {got:?}"
                            );
                        }
                    }
                    Err(e) => {
                        t.short_cells += 1;
                        let got = upgrade_finish(&mut twin, &Err(e), &plan2);
                        if got != want {
                            t.twin_divergences += 1;
                            class_div += 1;
                            eprintln!("TWIN DIVERGENCE {tag} (short-err):\n  want {want:?}\n  got  {got:?}");
                        }
                    }
                    Ok(None) => {
                        t.midflight_cells += 1;
                        let cut_img = twin.snapshot_midflight();
                        t.image_bytes += cut_img.len() as u64;
                        let plan_state = plan2.state_image();
                        // Leg A: same build, forced through the v3→v4
                        // upcaster (downgrade first).
                        if let Some(got) = upgrade_leg(
                            &mut twin,
                            &cut_img,
                            &plan_state,
                            class,
                            seed,
                            &targets,
                            true,
                            &mut t,
                            &tag,
                        ) {
                            if got != want {
                                t.twin_divergences += 1;
                                class_div += 1;
                                eprintln!(
                                    "TWIN DIVERGENCE {tag} (v3 roundtrip):\n  want {want:?}\n  got  {got:?}"
                                );
                            }
                        }
                        // Leg B: compatible rebuild (pad function
                        // appended) adopts the image across code_id.
                        if let Some(got) = upgrade_leg(
                            &mut patched,
                            &cut_img,
                            &plan_state,
                            class,
                            seed,
                            &targets,
                            false,
                            &mut t,
                            &tag,
                        ) {
                            if got != want {
                                t.crossbuild_divergences += 1;
                                class_div += 1;
                                eprintln!(
                                    "CROSS-BUILD DIVERGENCE {tag}:\n  want {want:?}\n  got  {got:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
        println!(
            "upgrade {:18} cells {:3}  divergences {:3}",
            class.name(),
            SEEDS.len() as u64 * UPGRADE_WORKLOADS.len() as u64,
            class_div,
        );
    }
    t
}

/// Coordinated-quiesce probe: one pinned workload per vCPU, quiesce at
/// a mid-run boundary, resume the coordinated image on a *fresh*
/// machine and require the resumed fleet to match the quiesced run
/// job-for-job.
struct QuiesceProbe {
    vcpus: u32,
    boundary: u64,
    park_spread: Duration,
    run_wall: Duration,
    image_bytes: u64,
    resume_divergences: u64,
    resume_error: Option<String>,
    jobs: u64,
}

fn run_upgrade_quiesce(vcpus: u32) -> QuiesceProbe {
    // Self-calibrating boundary: half the step count of the shortest
    // workload's clean boot+run, so every member parks mid-flight.
    let min_steps = WORKLOADS
        .iter()
        .map(|&(prog, iters, size, mode)| {
            let mut vm = upgrade_vm(1);
            let _ = boot_user(&mut vm, prog, pack_arg(iters, size, mode));
            FUEL - vm.fuel()
        })
        .min()
        .unwrap_or(FUEL);
    let boundary = min_steps / 2;
    let mut machine = SmpMachine::new(upgrade_vm(vcpus));
    let jobs: Vec<SmpJob> = (0..vcpus as usize)
        .map(|i| {
            let (prog, iters, size, mode) = WORKLOADS[i % WORKLOADS.len()];
            let addr = machine
                .template()
                .func_address(prog)
                .unwrap_or_else(|| panic!("no user program {prog}"));
            SmpJob::boot_user(
                format!("quiesce-cpu{i}-{prog}"),
                addr,
                pack_arg(iters, size, mode),
            )
        })
        .collect();
    let outcome = machine.quiesce(jobs, boundary);
    let mut probe = QuiesceProbe {
        vcpus,
        boundary,
        park_spread: outcome.park_spread,
        run_wall: outcome.report.wall,
        image_bytes: outcome.image.len() as u64,
        resume_divergences: 0,
        resume_error: None,
        jobs: outcome.report.jobs.len() as u64,
    };
    let mut fresh = SmpMachine::new(upgrade_vm(vcpus));
    match fresh.resume_quiesced(&outcome.image) {
        Err(e) => probe.resume_error = Some(e.to_string()),
        Ok(resumed) => {
            for (a, b) in outcome.report.jobs.iter().zip(&resumed.jobs) {
                let same = format!("{:?}", a.exit) == format!("{:?}", b.exit)
                    && a.console == b.console
                    && a.stats.equivalence_key() == b.stats.equivalence_key();
                if !same {
                    probe.resume_divergences += 1;
                    eprintln!(
                        "QUIESCE RESUME DIVERGENCE cpu {}:\n  quiesced {:?} / {} console bytes / {:?}\n  resumed  {:?} / {} console bytes / {:?}",
                        a.cpu,
                        a.exit,
                        a.console.len(),
                        a.stats.equivalence_key(),
                        b.exit,
                        b.console.len(),
                        b.stats.equivalence_key(),
                    );
                }
            }
        }
    }
    probe
}

/// The `--upgrade` entry point: differential grid + quiesce probe, JSON
/// report, jq-friendly gates. Never returns.
fn run_upgrade_campaign(vcpus: u32) -> ! {
    let t_total = Instant::now();
    let grid = catch_unwind(AssertUnwindSafe(run_upgrade_grid)).ok();
    let grid_panicked = grid.is_none();
    let mut grid = grid.unwrap_or_default();
    if grid_panicked {
        grid.migrate_panics += 1;
    }
    let quiesce = run_upgrade_quiesce(vcpus);
    let total_wall = t_total.elapsed();
    let migrate_us_avg = if grid.migrations == 0 {
        0.0
    } else {
        grid.migrate_ns as f64 / 1000.0 / grid.migrations as f64
    };
    let image_kib_avg = grid
        .image_bytes
        .checked_div(grid.midflight_cells)
        .unwrap_or(0)
        / 1024;
    println!(
        "upgrade total: {} cells ({} mid-flight, {} short), {} migrations @ {:.0} µs avg, image {} KiB avg",
        grid.cells, grid.midflight_cells, grid.short_cells, grid.migrations, migrate_us_avg,
        image_kib_avg,
    );
    println!(
        "quiesce({}): boundary {} steps, park spread {} µs, run {} ms, image {} KiB, resume divergences {}{}",
        quiesce.vcpus,
        quiesce.boundary,
        quiesce.park_spread.as_micros(),
        quiesce.run_wall.as_millis(),
        quiesce.image_bytes / 1024,
        quiesce.resume_divergences,
        quiesce
            .resume_error
            .as_ref()
            .map(|e| format!(", RESUME ERROR: {e}"))
            .unwrap_or_default(),
    );
    let json = format!(
        concat!(
            "{{\"campaign\":\"faultcamp-upgrade\",\"cells\":{},\"midflight_cells\":{},",
            "\"short_cells\":{},\"faults_injected\":{},",
            "\"migrations\":{},\"migrate_cost_us_avg\":{:.1},\"image_kib_avg\":{},",
            "\"wall_ms\":{},",
            "\"quiesce\":{{\"vcpus\":{},\"boundary_steps\":{},\"park_spread_us\":{},",
            "\"run_wall_ms\":{},\"image_kib\":{},\"resume_ok\":{},\"jobs\":{}}},",
            "\"gates\":{{\"twin_divergences\":{},\"crossbuild_divergences\":{},",
            "\"migrate_errors\":{},\"migrate_panics\":{},",
            "\"quiesce_resume_divergences\":{}}}}}\n"
        ),
        grid.cells,
        grid.midflight_cells,
        grid.short_cells,
        grid.injected,
        grid.migrations,
        migrate_us_avg,
        image_kib_avg,
        total_wall.as_millis(),
        quiesce.vcpus,
        quiesce.boundary,
        quiesce.park_spread.as_micros(),
        quiesce.run_wall.as_millis(),
        quiesce.image_bytes / 1024,
        quiesce.resume_error.is_none(),
        quiesce.jobs,
        grid.twin_divergences,
        grid.crossbuild_divergences,
        grid.migrate_errors,
        grid.migrate_panics,
        quiesce.resume_divergences,
    );
    let dir = report_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("faultcamp-upgrade.json");
        if std::fs::write(&path, &json).is_ok() {
            println!("report: {}", path.display());
        }
    }
    let mut failed = false;
    let mut fail = |cond: bool, msg: &str| {
        if cond {
            eprintln!("FAILURE: {msg}");
            failed = true;
        }
    };
    fail(grid_panicked, "the upgrade grid panicked the host");
    fail(
        grid.twin_divergences > 0,
        "a migrated twin diverged from its original run",
    );
    fail(
        grid.crossbuild_divergences > 0,
        "a compatible-rebuild twin diverged from its original run",
    );
    fail(
        grid.migrate_errors > 0,
        "a migration failed closed mid-campaign",
    );
    fail(grid.migrate_panics > 0, "a migration panicked");
    fail(
        grid.midflight_cells == 0,
        "no cell was cut mid-flight (cut boundary miscalibrated?)",
    );
    fail(
        grid.injected < 200,
        "upgrade grid injected fewer than 200 faults (arm disarmed?)",
    );
    fail(
        quiesce.resume_error.is_some(),
        "the coordinated quiesce image did not restore",
    );
    fail(
        quiesce.resume_divergences > 0,
        "a resumed vCPU diverged from the quiesced run",
    );
    std::process::exit(if failed { 1 } else { 0 });
}

/// `target/<sub>` anchored at the workspace root (nearest ancestor
/// holding Cargo.lock), same as the bench harness, so artifacts land in
/// one known place regardless of the cwd cargo chose.
fn anchored_dir(sub: &str) -> std::path::PathBuf {
    let mut cur = std::env::var("CARGO_MANIFEST_DIR")
        .map(std::path::PathBuf::from)
        .or_else(|_| std::env::current_dir())
        .unwrap_or_else(|_| std::path::PathBuf::from("."));
    loop {
        if cur.join("Cargo.lock").exists() {
            return cur.join("target").join(sub);
        }
        if !cur.pop() {
            return std::path::PathBuf::from("target").join(sub);
        }
    }
}

fn report_dir() -> std::path::PathBuf {
    match std::env::var("SVA_INJECT_DIR") {
        Ok(d) => std::path::PathBuf::from(d),
        Err(_) => anchored_dir("sva-inject"),
    }
}

/// Where crash bundles land (`svadbg` and CI read the same files).
fn bundle_dir() -> std::path::PathBuf {
    match std::env::var("SVA_DBG_DIR") {
        Ok(d) => std::path::PathBuf::from(d),
        Err(_) => anchored_dir("sva-dbg"),
    }
}

fn run_arm(
    verify_reboot: bool,
    ctx: &ArmCtx,
    mismatches: &mut u64,
    deaths: &mut BTreeSet<String>,
) -> (Tally, Vec<(FaultClass, Tally)>) {
    let mut scratch = scratch_vm(ctx.arm, BUDGET);
    let mut total = Tally::default();
    let mut per_class = Vec::new();
    for class in FaultClass::ALL {
        let mut tally = Tally::default();
        for seed in SEEDS {
            for wi in 0..WORKLOADS.len() {
                let r = run_cell(
                    verify_reboot,
                    ctx,
                    &mut scratch,
                    class,
                    seed,
                    wi,
                    BUDGET,
                    &ctx.images,
                    mismatches,
                    deaths,
                );
                tally.absorb(&r);
                total.absorb(&r);
            }
        }
        println!(
            "{:7} {:18} runs {:3}  injected {:6}  recovered {:6}  deaths {:3}  contained sys/boot {:5}/{:4}  probes live {:4}",
            ctx.arm.name(),
            class.name(),
            tally.runs,
            tally.injected,
            tally.recovered,
            tally.machine_deaths(),
            tally.contained_syscall,
            tally.contained_boot,
            tally.probes_responsive,
        );
        per_class.push((class, tally));
    }
    (total, per_class)
}

fn main() {
    let mut verify_reboot = false;
    let mut smp_vcpus: u32 = 4;
    let mut upgrade = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let bad = |v: &str| {
            eprintln!("faultcamp: --vcpus takes a count >= 1, got {v:?}");
            std::process::exit(2);
        };
        match args[i].as_str() {
            "--verify-reboot" => verify_reboot = true,
            "--upgrade" => upgrade = true,
            "--vcpus" => {
                i += 1;
                let v = args.get(i).map(String::as_str).unwrap_or("");
                smp_vcpus = v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| bad(v));
            }
            other => match other.strip_prefix("--vcpus=") {
                Some(v) => {
                    smp_vcpus = v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| bad(v));
                }
                None => {
                    eprintln!(
                        "faultcamp: unknown flag {other} (expected --verify-reboot, --upgrade or --vcpus N)"
                    );
                    std::process::exit(2);
                }
            },
        }
        i += 1;
    }
    if upgrade {
        run_upgrade_campaign(smp_vcpus);
    }
    let mode = if verify_reboot {
        "verify_reboot"
    } else {
        "fork"
    };
    let t_total = Instant::now();

    // Boot/imaging phase: probe targets, clean stranded baselines (the
    // sanity gate for the proc_table geometry — a clean run must strand
    // nothing beyond its own baseline), and the shared post-boot images.
    let t_boot = Instant::now();
    let flat_ctx = ArmCtx::build(Arm::Flat);
    let nested_ctx = ArmCtx::build(Arm::Nested);
    let mut boot_wall = t_boot.elapsed();
    let (n, bytes) = [&flat_ctx, &nested_ctx]
        .iter()
        .flat_map(|c| &c.images)
        .fold((0u64, 0u64), |(n, b), (_, img)| {
            (n + 1, b + img.bytes.len() as u64)
        });
    println!(
        "boot images: {} columns, {} KiB total ({} ms)",
        n,
        bytes / 1024,
        boot_wall.as_millis(),
    );

    // Determinism gate on both arms: the same plan on the same workload
    // must replay bit-identically — stats, injections and blast radius.
    let mut deterministic = true;
    let mut mismatches = 0u64;
    let mut deaths = BTreeSet::new();
    for ctx in [&flat_ctx, &nested_ctx] {
        let mut scratch = scratch_vm(ctx.arm, BUDGET);
        let mut cell = |deaths: &mut BTreeSet<String>| {
            run_cell(
                verify_reboot,
                ctx,
                &mut scratch,
                FaultClass::WildPtr,
                SEEDS[0],
                0,
                BUDGET,
                &ctx.images,
                &mut mismatches,
                deaths,
            )
        };
        let d0 = cell(&mut deaths);
        let d1 = cell(&mut deaths);
        if d0 != d1 || d0.is_none() {
            deterministic = false;
            eprintln!(
                "DETERMINISM FAILURE ({}):\n  {d0:?}\n  {d1:?}",
                ctx.arm.name()
            );
        }
    }

    // Fork/reboot cross-check: by default one cell per arm also runs on a
    // freshly booted machine and must match byte-identically — a standing
    // canary that forking is an optimization, not a semantic change.
    // (`--verify-reboot` extends this to every cell.)
    if !verify_reboot {
        for ctx in [&flat_ctx, &nested_ctx] {
            let mut scratch = scratch_vm(ctx.arm, BUDGET);
            let tag = cell_tag(ctx.arm, FaultClass::WildPtr, SEEDS[0], 0, BUDGET);
            let f = run_one_forked(
                &mut scratch,
                ctx.arm,
                FaultClass::WildPtr,
                SEEDS[0],
                ctx.baselines[0],
                &ctx.targets,
                image_for(&ctx.images, 0),
                &tag,
            );
            let r = run_one_reboot(
                ctx.arm,
                FaultClass::WildPtr,
                SEEDS[0],
                WORKLOADS[0],
                BUDGET,
                ctx.baselines[0],
                &ctx.targets,
                &tag,
            );
            if f != r || f.is_none() {
                mismatches += 1;
                eprintln!(
                    "FORK/REBOOT MISMATCH ({} cross-check):\n  fork:   {f:?}\n  reboot: {r:?}",
                    ctx.arm.name()
                );
            }
        }
    }

    let t_grid = Instant::now();
    let (flat_total, flat_classes) =
        run_arm(verify_reboot, &flat_ctx, &mut mismatches, &mut deaths);
    let (nested_total, nested_classes) =
        run_arm(verify_reboot, &nested_ctx, &mut mismatches, &mut deaths);
    let grid_wall = t_grid.elapsed();

    // Degradation sub-run: budget 1, so a single violation poisons its
    // pool and the owning syscall degrades to -ENOSYS while the rest of
    // the machine keeps answering. The violation budget is part of the
    // snapshot config fingerprint, so this sub-run forks from its own
    // budget-1 images.
    let t = Instant::now();
    let degr_images: Vec<(usize, BootImage)> = [1usize, 3]
        .into_iter()
        .map(|wi| (wi, boot_image(Arm::Nested, WORKLOADS[wi], 1)))
        .collect();
    boot_wall += t.elapsed();
    let mut degr_scratch = scratch_vm(Arm::Nested, 1);
    let mut degr = Tally::default();
    let mut degraded_runs = 0u64;
    for seed in [1, 2, 3] {
        for wi in [1usize, 3] {
            let r = run_cell(
                verify_reboot,
                &nested_ctx,
                &mut degr_scratch,
                FaultClass::WildPtr,
                seed,
                wi,
                1,
                &degr_images,
                &mut mismatches,
                &mut deaths,
            );
            if let Some(rr) = &r {
                if rr.blast.syscalls_degraded > 0 {
                    degraded_runs += 1;
                }
            }
            degr.absorb(&r);
        }
    }
    println!(
        "nested  degradation(b=1)  runs {:3}  degraded-runs {:3}  syscalls-degraded {:3}  deaths {:3}  probes live {:4}",
        degr.runs,
        degraded_runs,
        degr.syscalls_degraded,
        degr.machine_deaths(),
        degr.probes_responsive,
    );

    // Repair arm (DESIGN.md §4.8): transiently poison each target's
    // pool, trip it, and measure availability while the IRQ-driven
    // repair manager heals the subsystem. Then the retire drill: keep
    // re-poisoning one target until the strike budget retires it — the
    // machine must shrug, not die.
    let mut repair = RepairTally::default();
    let mut repair_targets = Vec::new();
    for (handler, args) in REPAIR_TARGETS {
        match attributed_pool(handler, args) {
            Some(pool) => repair_targets.push((handler, args, pool)),
            None => println!("repair arm: {handler} never faults — skipped"),
        }
    }
    for (handler, args, pool) in &repair_targets {
        run_repair_cell(&mut repair, handler, args, *pool);
    }
    let drill = match repair_targets.first() {
        Some((handler, args, pool)) => run_retire_drill(handler, args, *pool),
        None => RetireDrill::default(),
    };
    println!(
        "nested  repair            cells {:3}  repaired {:3}  availability {:.4}  retired {:3}  probation pass/fail {:3}/{:3}",
        repair.cells,
        repair.repaired_subsystems,
        repair.availability(),
        repair.stats.subsys_retired,
        repair.stats.probation_passed,
        repair.stats.probation_failed,
    );
    println!(
        "nested  retire-drill      trips {:3}  retired {}  post-retire -ENOSYS {}  machine alive {}",
        drill.trips, drill.retired, drill.post_retire_enosys, drill.machine_alive,
    );

    // SMP arm (DESIGN.md §4.9): the 6-class grid as concurrent job
    // batches on a multi-vCPU machine.
    let smp = catch_unwind(AssertUnwindSafe(|| {
        run_smp_arm(smp_vcpus, &nested_ctx.targets)
    }))
    .ok();
    let smp_panicked = smp.is_none();
    let smp = smp.unwrap_or_default();
    println!(
        "smp({})  total             jobs {:3}  injected {:6}  recovered {:6}  deaths {:3}  escapes {:3}  steals {:4}",
        smp_vcpus, smp.jobs, smp.injected, smp.recovered, smp.deaths, smp.escapes, smp.steals,
    );

    // Crash-forensics gate: every machine death above must have left a
    // bundle whose replay reproduces the same halt code, resume code and
    // console bit-for-bit.
    let bdir = bundle_dir();
    let mut bundle_failures = 0u64;
    for tag in &deaths {
        let path = bdir.join(format!("{tag}-halt.bundle"));
        let verdict = std::fs::read(&path)
            .map_err(|e| format!("bundle not written: {e}"))
            .and_then(|bytes| CrashBundle::from_bytes(&bytes).map_err(|e| e.to_string()))
            .and_then(|b| {
                let r = replay(&b).map_err(|e| e.to_string())?;
                check_reproduction(&b, &r)
            });
        if let Err(e) = verdict {
            bundle_failures += 1;
            eprintln!("BUNDLE REPLAY FAILURE {}: {e}", path.display());
        }
    }
    println!(
        "crash bundles: {} machine-death cells, {} replay failures ({})",
        deaths.len(),
        bundle_failures,
        bdir.display(),
    );

    let total_wall = t_total.elapsed();
    let ms = |d: Duration| d.as_millis() as u64;

    let arm_json = |total: &Tally, classes: &[(FaultClass, Tally)]| {
        let cj: Vec<String> = classes
            .iter()
            .map(|(c, t)| format!("{{\"class\":\"{}\",\"tally\":{}}}", c.name(), t.json()))
            .collect();
        format!(
            "{{\"total\":{},\"classes\":[{}]}}",
            total.json(),
            cj.join(",")
        )
    };
    let json = format!(
        concat!(
            "{{\"campaign\":\"faultcamp\",\"boot_mode\":\"{}\",\"deterministic\":{},",
            "\"wall_ms\":{{\"boot_images\":{},\"grid\":{},\"total\":{}}},",
            "\"flat\":{},\"nested\":{},",
            "\"degradation\":{{\"tally\":{},\"degraded_runs\":{}}},",
            "\"repair\":{{\"cells\":{},\"repaired_subsystems\":{},\"availability\":{:.4},",
            "\"probes_total\":{},\"probes_serviced\":{},\"repairs\":{},",
            "\"pools_repaired\":{},\"probation_passed\":{},\"probation_failed\":{},",
            "\"retired_subsystems\":{},\"deaths\":{}}},",
            "\"retire_drill\":{{\"retired\":{},\"stats_retired\":{},\"trips\":{},",
            "\"post_retire_enosys\":{},\"machine_alive\":{}}},",
            "\"smp\":{},",
            "\"gates\":{{\"panics\":{},\"escapes\":{},\"nested_machine_deaths\":{},",
            "\"nested_probes_dead\":{},\"flat_machine_deaths\":{},",
            "\"fork_reboot_mismatches\":{},",
            "\"crash_bundle_cells\":{},\"bundle_replay_failures\":{},",
            "\"smp_machine_deaths\":{},\"smp_escapes\":{}}}}}\n"
        ),
        mode,
        deterministic,
        ms(boot_wall),
        ms(grid_wall),
        ms(total_wall),
        arm_json(&flat_total, &flat_classes),
        arm_json(&nested_total, &nested_classes),
        degr.json(),
        degraded_runs,
        repair.cells,
        repair.repaired_subsystems,
        repair.availability(),
        repair.probes_total,
        repair.probes_serviced,
        repair.stats.repairs,
        repair.stats.pools_repaired,
        repair.stats.probation_passed,
        repair.stats.probation_failed,
        repair.stats.subsys_retired,
        repair.deaths,
        drill.retired,
        drill.stats_retired,
        drill.trips,
        drill.post_retire_enosys,
        drill.machine_alive,
        smp.json(),
        flat_total.panics + nested_total.panics + degr.panics,
        flat_total.escaped_safety + nested_total.escaped_safety + degr.escaped_safety,
        nested_total.machine_deaths() + degr.machine_deaths(),
        nested_total.probes_dead + degr.probes_dead,
        flat_total.machine_deaths(),
        mismatches,
        deaths.len(),
        bundle_failures,
        smp.deaths,
        smp.escapes,
    );

    let dir = report_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("faultcamp.json");
        if std::fs::write(&path, &json).is_ok() {
            println!("report: {}", path.display());
        }
    }

    let panics = flat_total.panics + nested_total.panics + degr.panics;
    let escapes = flat_total.escaped_safety + nested_total.escaped_safety + degr.escaped_safety;
    println!(
        "flat:   {} injected, {} recovered, {} machine deaths, probes {}/{} live",
        flat_total.injected,
        flat_total.recovered,
        flat_total.machine_deaths(),
        flat_total.probes_responsive,
        flat_total.runs * PROBES.len() as u64,
    );
    println!(
        "nested: {} injected, {} recovered, {} machine deaths, probes {}/{} live, contained sys/boot {}/{}",
        nested_total.injected,
        nested_total.recovered,
        nested_total.machine_deaths(),
        nested_total.probes_responsive,
        nested_total.runs * PROBES.len() as u64,
        nested_total.contained_syscall,
        nested_total.contained_boot,
    );
    println!(
        "mode {}: boot/imaging {} ms, grid {} ms, total {} ms",
        mode,
        ms(boot_wall),
        ms(grid_wall),
        ms(total_wall),
    );

    let mut failed = false;
    let mut fail = |cond: bool, msg: &str| {
        if cond {
            eprintln!("FAILURE: {msg}");
            failed = true;
        }
    };
    fail(panics > 0, "a campaign run panicked the host");
    fail(escapes > 0, "a safety violation escaped a recovery domain");
    fail(!deterministic, "campaign replay was not bit-identical");
    fail(
        mismatches > 0,
        "a snapshot-forked run diverged from a fresh re-boot",
    );
    fail(
        flat_total.injected + nested_total.injected < 1000,
        "campaign injected fewer than 1000 faults",
    );
    fail(
        nested_total.machine_deaths() + degr.machine_deaths() > 0,
        "a fault killed the nested machine (blast radius escaped the syscall)",
    );
    fail(
        nested_total.probes_dead + degr.probes_dead > 0,
        "a post-fault probe found the nested machine unresponsive",
    );
    fail(
        nested_total.recovered > 0 && nested_total.contained_syscall == 0,
        "nested arm recovered faults but none at syscall depth",
    );
    fail(
        degraded_runs == 0,
        "degradation sub-run never degraded a syscall",
    );
    fail(
        repair.repaired_subsystems == 0,
        "repair arm never returned a degraded subsystem to service",
    );
    fail(
        repair.availability() < 0.99,
        "repair-arm availability below 0.99",
    );
    fail(
        repair.stats.subsys_retired > 0,
        "repair arm permanently retired a subsystem under default budgets",
    );
    fail(repair.deaths > 0, "a repair-arm cell killed the machine");
    fail(
        !(drill.retired && drill.post_retire_enosys && drill.machine_alive),
        "retire drill: strike-budget retirement must fence to -ENOSYS with the machine alive",
    );
    fail(
        nested_total.machine_deaths() >= flat_total.machine_deaths()
            && flat_total.machine_deaths() > 0,
        "nested blast radius not strictly smaller than flat",
    );
    fail(
        bundle_failures > 0,
        "a machine death's crash bundle is missing or did not replay bit-exactly",
    );
    fail(
        flat_total.machine_deaths() > 0 && deaths.is_empty(),
        "flat machines died but no cell recorded a crash bundle",
    );
    fail(smp_panicked, "the SMP arm panicked the host");
    fail(
        smp.escapes > 0,
        "a safety violation escaped a recovery domain on the SMP machine",
    );
    fail(
        smp.deaths > 0,
        "a fault killed a vCPU's machine on the SMP arm",
    );
    fail(
        smp.injected < 200,
        "SMP arm injected fewer than 200 faults (arm disarmed?)",
    );
    fail(
        smp.recovered == 0,
        "SMP arm recovered no violations (containment never exercised)",
    );
    if failed {
        std::process::exit(1);
    }
}
