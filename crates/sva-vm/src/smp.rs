//! Multi-vCPU SMP machine (DESIGN.md §4.9).
//!
//! [`SmpMachine`] runs `VmConfig::vcpus` virtual CPUs, one host thread
//! each. The state split:
//!
//! * **Shared, read-only**: the translated code image (`Arc<CodeImage>`,
//!   translation and superinstruction fusion happen once).
//! * **Shared, published per slot**: metapool object metadata lives in
//!   one [`SharedMetaPlane`]. Each vCPU owns a contiguous slot range
//!   inside the plane (its kernel instance's object namespace), and every
//!   slot publishes on its own: a registration or drop rebuilds only its
//!   slot's snapshot and bumps only that slot's generation, which kills
//!   the MRU lines tagged with the old generation at the cost of a single
//!   `Acquire` load on their next lookup — cross-CPU invalidation with
//!   zero traffic — and leaves every other slot's lines alive.
//! * **Private**: memory image, thread state, recovery-domain stack,
//!   per-vCPU MRU/singleton caches, `CheckStats`, `VmStats`, console and
//!   trace sinks. Each job runs on a fresh fork of the never-run
//!   template; the fork copies only the template's nonzero kernel pages,
//!   recorded once at construction, and the kernel-stack window is carved
//!   into per-CPU lanes.
//!
//! Work arrives as [`SmpJob`]s on per-vCPU run queues. An idle vCPU
//! first drains its own queue, then *steals* from its neighbours
//! (`cpu+1, cpu+2, …` round-robin, stealing from the cold end) — but
//! only from a neighbour whose virtual clock (the cycles of the jobs it
//! has finished) is not behind its own — and finally parks on a condvar
//! until the fleet drains. IRQs queued before a run are routed by
//! [`IrqAffinity`]: round-robin fan-out (`Spread`), a fixed vCPU
//! (`Pin`), or every vCPU (`Broadcast`).
//!
//! At halt the per-vCPU reports are merged **deterministically in
//! cpu-id order** and job results are returned in submission order.
//! With `vcpus == 1` no plane is created and no thread is spawned: the
//! single fork takes exactly the classic machine's code path, so its
//! `VmStats::equivalence_key` is byte-identical to the pre-SMP machine.
//!
//! Throughput is reported in *virtual time*: the machine-level elapsed
//! time of a run is the maximum virtual cycle count over vCPUs (they
//! run concurrently), while syscalls served is the sum — so
//! `syscalls_per_mcycle` scales with vCPU count as long as the shared
//! plane does not serialize the check path. The steal rule keeps that
//! makespan a property of the machine rather than of host scheduling: a
//! vCPU whose host thread got a core first cannot drain the queues of
//! siblings still waiting for one. Wall-clock time is recorded too
//! ([`SmpReport::wall`]); it is the host-time view of the same run.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sva_rt::{CheckStats, SharedMetaPlane};

use crate::mem::ForkPlan;
use crate::migrate::MigrateError;
use crate::snapshot::{fnv64, SnapshotError};
use crate::vm::{IrqAffinity, Vm, VmError, VmExit, VmStats};

/// A per-job setup hook (see [`SmpJob::setup`]).
pub type JobSetup = Arc<dyn Fn(&mut Vm) + Send + Sync>;

/// One unit of work: a set of `u64` globals written into a fresh vCPU
/// fork, which is then booted. The kernel harness convention is two
/// globals, `boot_user_prog` / `boot_user_arg` (see
/// [`SmpJob::boot_user`]).
#[derive(Clone, Default)]
pub struct SmpJob {
    /// Label carried through to the [`JobResult`] (e.g. the program name).
    pub label: String,
    /// Globals written before boot, in order.
    pub globals: Vec<(String, u64)>,
    /// Per-job setup run on the fresh fork after its plane slot range is
    /// bound but before the globals are written — fault-injection
    /// campaigns arm a per-job plan and enable crash capture here.
    pub setup: Option<JobSetup>,
}

impl std::fmt::Debug for SmpJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmpJob")
            .field("label", &self.label)
            .field("globals", &self.globals)
            .field("setup", &self.setup.is_some())
            .finish()
    }
}

impl SmpJob {
    /// A job following the kernel harness boot protocol: boot with
    /// `prog_addr` as the init user program and `arg` as its argument.
    /// Resolve `prog_addr` with [`Vm::func_address`] on the template.
    pub fn boot_user(label: impl Into<String>, prog_addr: u64, arg: u64) -> SmpJob {
        SmpJob {
            label: label.into(),
            globals: vec![
                ("boot_user_prog".to_string(), prog_addr),
                ("boot_user_arg".to_string(), arg),
            ],
            setup: None,
        }
    }

    /// Attaches a per-job setup hook (see the `setup` field).
    pub fn with_setup(mut self, setup: impl Fn(&mut Vm) + Send + Sync + 'static) -> SmpJob {
        self.setup = Some(Arc::new(setup));
        self
    }
}

/// Outcome of one job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Index of the job in the submitted batch.
    pub job: usize,
    /// The job's label.
    pub label: String,
    /// The vCPU that executed it (varies run-to-run under stealing).
    pub cpu: u32,
    /// How the boot ended.
    pub exit: Result<VmExit, VmError>,
    /// The executing fork's stats.
    pub stats: VmStats,
    /// The executing fork's cumulative check counters.
    pub checks: CheckStats,
    /// Console bytes the job produced.
    pub console: Vec<u8>,
}

/// Per-vCPU aggregate, merged at halt.
#[derive(Clone, Debug, Default)]
pub struct CpuReport {
    /// The vCPU id.
    pub cpu: u32,
    /// Jobs this vCPU executed.
    pub jobs: u32,
    /// Jobs claimed from another vCPU's queue.
    pub steals: u64,
    /// Times this vCPU parked with the fleet still draining.
    pub parks: u64,
    /// IRQ vectors routed to this vCPU's jobs.
    pub irqs_routed: u64,
    /// Summed [`VmStats`] over this vCPU's jobs.
    pub stats: VmStats,
    /// Summed check counters over this vCPU's jobs.
    pub checks: CheckStats,
}

/// The merged outcome of one [`SmpMachine::run`].
#[derive(Clone, Debug)]
pub struct SmpReport {
    /// vCPU count the run used.
    pub vcpus: u32,
    /// Per-vCPU reports, cpu-id order.
    pub cpus: Vec<CpuReport>,
    /// Per-job results, submission order.
    pub jobs: Vec<JobResult>,
    /// All vCPU stats folded in cpu-id order.
    pub merged: VmStats,
    /// Total syscalls served (`merged.traps`).
    pub total_syscalls: u64,
    /// Virtual elapsed time of the run: max cycles over vCPUs.
    pub max_cpu_cycles: u64,
    /// Host wall-clock time of the run (scheduling noise included).
    pub wall: Duration,
    /// Plane epoch after the run (0 with no plane).
    pub final_epoch: u64,
    /// Superseded plane snapshots still pinned at halt (deferred
    /// reclamation backlog; 0 once every vCPU quiesced).
    pub retired_snapshots: usize,
}

impl SmpReport {
    /// Deterministic throughput: syscalls per million virtual cycles of
    /// machine-level elapsed time.
    pub fn syscalls_per_mcycle(&self) -> f64 {
        if self.max_cpu_cycles == 0 {
            return 0.0;
        }
        self.total_syscalls as f64 / (self.max_cpu_cycles as f64 / 1e6)
    }

    /// Every job that did not exit cleanly with code 0.
    pub fn failures(&self) -> Vec<&JobResult> {
        self.jobs
            .iter()
            .filter(|j| !matches!(j.exit, Ok(VmExit::Halted(0) | VmExit::Returned(0))))
            .collect()
    }
}

/// Shared run-loop state; lives on the stack of [`SmpMachine::run`].
struct RunState {
    jobs: Vec<SmpJob>,
    /// Per-vCPU run queues of indices into `jobs`.
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Per-vCPU virtual clock: the cycles of the jobs it has finished.
    clocks: Vec<AtomicU64>,
    /// Jobs enqueued but not yet claimed by any vCPU.
    unclaimed: AtomicUsize,
    /// Jobs fully executed. Idle vCPUs wait on `cv` for it to move.
    finished: Mutex<usize>,
    total: usize,
    cv: Condvar,
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned queue mutex means a sibling vCPU panicked; the queue
    // itself (a deque of indices) is always coherent — recover it.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The multi-vCPU machine. See the module docs for the state split.
pub struct SmpMachine {
    /// The pristine machine forks are cut from. Never run.
    template: Vm,
    vcpus: u32,
    affinity: IrqAffinity,
    /// The shared metadata plane (`None` when `vcpus == 1`).
    plane: Option<Arc<SharedMetaPlane>>,
    /// Plane slot-range base per vCPU (`cpu * pools_per_cpu`).
    slot_base: Vec<u32>,
    /// Per-pool live ranges of the pristine template — what each slot
    /// range is reset to before a job boots.
    baseline: Vec<Vec<(u64, u64)>>,
    /// The template's nonzero kernel pages: what each fork copies.
    fork_plan: ForkPlan,
    /// Round-robin cursor for `IrqAffinity::Spread`.
    irq_next: u32,
    /// Vectors queued per vCPU, delivered to its next job.
    irq_pending: Vec<VecDeque<i64>>,
}

impl SmpMachine {
    /// Builds the machine around a pristine (never-run) template VM.
    /// `cfg.vcpus` and `cfg.irq_affinity` on the template's config choose
    /// the geometry. At `vcpus >= 2` the template's pool table is
    /// published into a fresh shared plane once per vCPU; at `vcpus == 1`
    /// no plane exists and jobs take the classic single-machine path.
    pub fn new(template: Vm) -> SmpMachine {
        let vcpus = template.cfg.vcpus.max(1);
        let affinity = template.cfg.irq_affinity;
        let baseline = template.pools.live_ranges_by_pool();
        let fork_plan = template.mem.fork_plan();
        let (plane, slot_base) = if vcpus >= 2 {
            let plane = Arc::new(SharedMetaPlane::new());
            let bases = (0..vcpus)
                .map(|_| template.pools.publish_to_plane(&plane))
                .collect();
            (Some(plane), bases)
        } else {
            (None, vec![0])
        };
        SmpMachine {
            template,
            vcpus,
            affinity,
            plane,
            slot_base,
            baseline,
            fork_plan,
            irq_next: 0,
            irq_pending: (0..vcpus).map(|_| VecDeque::new()).collect(),
        }
    }

    /// vCPU count.
    pub fn vcpus(&self) -> u32 {
        self.vcpus
    }

    /// The shared metadata plane (`None` at `vcpus == 1`).
    pub fn plane(&self) -> Option<&Arc<SharedMetaPlane>> {
        self.plane.as_ref()
    }

    /// The pristine template machine.
    pub fn template(&self) -> &Vm {
        &self.template
    }

    /// Queues an IRQ vector, routed by the configured [`IrqAffinity`]:
    /// `Spread` round-robins across vCPUs, `Pin(c)` targets vCPU `c`
    /// (clamped), `Broadcast` queues on every vCPU. Pending vectors are
    /// delivered to the next job the target vCPU runs.
    pub fn queue_irq(&mut self, vector: i64) {
        let n = self.vcpus as usize;
        match self.affinity {
            IrqAffinity::Broadcast => {
                for q in &mut self.irq_pending {
                    q.push_back(vector);
                }
            }
            IrqAffinity::Pin(c) => self.irq_pending[(c as usize).min(n - 1)].push_back(vector),
            IrqAffinity::Spread => {
                let c = self.irq_next as usize % n;
                self.irq_next = self.irq_next.wrapping_add(1);
                self.irq_pending[c].push_back(vector);
            }
        }
    }

    /// Runs a batch of jobs to completion across all vCPUs and merges
    /// the result deterministically (cpu-id order for stats, submission
    /// order for job results).
    pub fn run(&mut self, jobs: Vec<SmpJob>) -> SmpReport {
        let n = self.vcpus as usize;
        let total = jobs.len();
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..n).map(|_| Mutex::new(VecDeque::new())).collect();
        for i in 0..total {
            relock(&queues[i % n]).push_back(i);
        }
        let state = RunState {
            jobs,
            queues,
            clocks: (0..n).map(|_| AtomicU64::new(0)).collect(),
            unclaimed: AtomicUsize::new(total),
            finished: Mutex::new(0),
            total,
            cv: Condvar::new(),
        };
        let mut irq_plans = std::mem::replace(
            &mut self.irq_pending,
            (0..n).map(|_| VecDeque::new()).collect(),
        );
        let this: &SmpMachine = self;
        let start = Instant::now();
        let per_cpu: Vec<(CpuReport, Vec<JobResult>)> = if n == 1 {
            // Single vCPU: no threads, no plane — the classic machine.
            vec![this.vcpu_loop(0, &state, irq_plans.pop().unwrap_or_default())]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = irq_plans
                    .drain(..)
                    .enumerate()
                    .map(|(cpu, irqs)| {
                        let state = &state;
                        s.spawn(move || this.vcpu_loop(cpu as u32, state, irqs))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("vCPU thread panicked"))
                    .collect()
            })
        };
        self.merge_report(per_cpu, start.elapsed())
    }

    /// One vCPU's scheduler loop: own queue, then steal, then wait for a
    /// sibling to finish a job, then park once nothing is left to claim.
    fn vcpu_loop(
        &self,
        cpu: u32,
        state: &RunState,
        mut irqs: VecDeque<i64>,
    ) -> (CpuReport, Vec<JobResult>) {
        let mut rep = CpuReport {
            cpu,
            ..CpuReport::default()
        };
        let mut results = Vec::new();
        loop {
            // Read before claiming, so a sibling's finish that lands after
            // a failed claim cuts the wait below short instead of being
            // missed.
            let seen = *relock(&state.finished);
            let Some(ji) = self.claim(cpu as usize, state, &mut rep) else {
                let mut finished = relock(&state.finished);
                if state.unclaimed.load(Ordering::Acquire) == 0 {
                    // Nothing left to claim, ever: park until the last
                    // in-flight job finishes, then retire.
                    if *finished < state.total {
                        rep.parks += 1;
                    }
                    while *finished < state.total {
                        finished = state.cv.wait(finished).unwrap_or_else(|e| e.into_inner());
                    }
                    break;
                }
                // Every queued job belongs to a sibling whose clock is
                // behind ours (or a sibling is mid-claim): only a finished
                // job can change that.
                while *finished == seen {
                    finished = state.cv.wait(finished).unwrap_or_else(|e| e.into_inner());
                }
                continue;
            };
            let vectors: Vec<i64> = irqs.drain(..).collect();
            rep.irqs_routed += vectors.len() as u64;
            let r = self.run_job(cpu, ji, &state.jobs[ji], &vectors);
            rep.jobs += 1;
            rep.stats.fold(&r.stats);
            rep.checks.merge(&r.checks);
            results.push(r);
            state.clocks[cpu as usize].store(rep.stats.cycles, Ordering::Release);
            *relock(&state.finished) += 1;
            state.cv.notify_all();
        }
        (rep, results)
    }

    /// Claims `cpu`'s next job: the front of its own queue, else the cold
    /// end of the first sibling queue (`cpu+1, cpu+2, …`) whose owner's
    /// virtual clock is not behind this vCPU's. A vCPU that is ahead in
    /// virtual time would start a stolen job later than the job's owner
    /// can; taking it anyway lets whichever host thread got a core first
    /// drain the queues of siblings still waiting for one, and the
    /// virtual makespan would then measure host scheduling.
    fn claim(&self, cpu: usize, state: &RunState, rep: &mut CpuReport) -> Option<usize> {
        {
            let mut q = relock(&state.queues[cpu]);
            if let Some(j) = q.pop_front() {
                state.unclaimed.fetch_sub(1, Ordering::AcqRel);
                return Some(j);
            }
        }
        let n = self.vcpus as usize;
        let mine = state.clocks[cpu].load(Ordering::Acquire);
        for k in 1..n {
            let victim = (cpu + k) % n;
            if state.clocks[victim].load(Ordering::Acquire) < mine {
                continue;
            }
            // Steal from the cold end: the owner keeps locality on its
            // front.
            let mut q = relock(&state.queues[victim]);
            if let Some(j) = q.pop_back() {
                state.unclaimed.fetch_sub(1, Ordering::AcqRel);
                rep.steals += 1;
                return Some(j);
            }
        }
        None
    }

    /// Forks the template for `cpu`, resets and binds the vCPU's plane
    /// slot range, runs the job's setup hook, writes its globals and
    /// queues its IRQ vectors — everything up to (but excluding) boot.
    fn prepare_fork(&self, cpu: u32, job: &SmpJob, irqs: &[i64]) -> (Vm, Option<VmError>) {
        let mut vm = self.template.fork_sparse(cpu, &self.fork_plan);
        if let Some(plane) = &self.plane {
            let base = self.slot_base[cpu as usize];
            plane
                .reset_slots(base, &self.baseline)
                .expect("baseline ranges are disjoint");
            vm.pools.bind_shared_at(plane, base);
        }
        if let Some(setup) = &job.setup {
            setup(&mut vm);
        }
        let mut global_err = None;
        for (name, v) in &job.globals {
            if let Err(e) = vm.write_global_u64(name, *v) {
                global_err = Some(e);
                break;
            }
        }
        for &v in irqs {
            vm.raise_interrupt(v);
        }
        (vm, global_err)
    }

    /// Executes one job on `cpu`: fork the template, reset and bind the
    /// vCPU's plane slot range, write the job's globals, queue its IRQ
    /// vectors, boot.
    fn run_job(&self, cpu: u32, ji: usize, job: &SmpJob, irqs: &[i64]) -> JobResult {
        let (mut vm, global_err) = self.prepare_fork(cpu, job, irqs);
        let exit = match global_err {
            Some(e) => Err(e),
            None => vm.boot(),
        };
        JobResult {
            job: ji,
            label: job.label.clone(),
            cpu,
            exit,
            stats: vm.stats(),
            checks: vm.pools.total_stats(),
            console: std::mem::take(&mut vm.console),
        }
    }

    /// Runs one **pinned** job per vCPU (`jobs[i]` on vCPU `i`, no
    /// stealing) and parks every vCPU at its next safe point after
    /// `boundary` instruction boundaries, capturing a coordinated
    /// multi-vCPU image (DESIGN.md §4.10).
    ///
    /// Each vCPU arms its fork's snapshot latch with a sink that blocks
    /// on a fleet-wide barrier: when the latch fires at the safe point
    /// the vCPU records its member image and *parks inside the
    /// instruction loop* until every sibling has reached its own safe
    /// point — the set of member images is therefore a consistent cut
    /// (no member has executed past its capture point while another's
    /// image was still forming). A job that reaches terminal state
    /// before its boundary contributes its terminal state as the member
    /// image and parks at the barrier from the outside. After the
    /// barrier releases, every vCPU runs its job on to terminal state,
    /// so the returned [`SmpReport`] is a complete run — the quiesce is
    /// a pause, not a stop.
    ///
    /// At `vcpus == 1` the single member takes exactly the classic
    /// machine's `request_snapshot_at` path, so the member image is
    /// byte-identical to a solo mid-flight snapshot at the same
    /// boundary.
    ///
    /// # Panics
    ///
    /// Panics if `jobs.len() != vcpus` — quiesce is a whole-machine
    /// protocol; every vCPU must participate.
    pub fn quiesce(&mut self, jobs: Vec<SmpJob>, boundary: u64) -> QuiesceOutcome {
        let n = self.vcpus as usize;
        assert_eq!(
            jobs.len(),
            n,
            "quiesce needs exactly one pinned job per vCPU"
        );
        let mut irq_plans = std::mem::replace(
            &mut self.irq_pending,
            (0..n).map(|_| VecDeque::new()).collect(),
        );
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let slots: Vec<Arc<Mutex<Option<Vec<u8>>>>> =
            (0..n).map(|_| Arc::new(Mutex::new(None))).collect();
        let arrivals: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::with_capacity(n)));
        let this: &SmpMachine = self;
        let start = Instant::now();
        let per_cpu: Vec<(CpuReport, Vec<JobResult>)> = if n == 1 {
            let r = this.quiesce_job(
                0,
                &jobs[0],
                &irq_plans
                    .pop()
                    .unwrap_or_default()
                    .drain(..)
                    .collect::<Vec<_>>(),
                boundary,
                &barrier,
                &slots[0],
                &arrivals,
            );
            vec![(cpu_report_of(&r), vec![r])]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = irq_plans
                    .drain(..)
                    .enumerate()
                    .map(|(cpu, irqs)| {
                        let (barrier, slot, arrivals, jobs) =
                            (&barrier, &slots[cpu], &arrivals, &jobs);
                        s.spawn(move || {
                            let vectors: Vec<i64> = irqs.into_iter().collect();
                            let r = this.quiesce_job(
                                cpu as u32, &jobs[cpu], &vectors, boundary, barrier, slot, arrivals,
                            );
                            (cpu_report_of(&r), vec![r])
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("vCPU thread panicked"))
                    .collect()
            })
        };
        let wall = start.elapsed();
        let members: Vec<Vec<u8>> = slots
            .iter()
            .map(|s| {
                relock(s)
                    .take()
                    .expect("every vCPU filled its member slot before the barrier")
            })
            .collect();
        let park_spread = {
            let a = relock(&arrivals);
            match (a.iter().min(), a.iter().max()) {
                (Some(&first), Some(&last)) => last.duration_since(first),
                _ => Duration::ZERO,
            }
        };
        QuiesceOutcome {
            image: encode_quiesce(&members),
            report: self.merge_report(per_cpu, wall),
            park_spread,
        }
    }

    /// One vCPU's half of the quiesce protocol; see [`Self::quiesce`].
    #[allow(clippy::too_many_arguments)]
    fn quiesce_job(
        &self,
        cpu: u32,
        job: &SmpJob,
        irqs: &[i64],
        boundary: u64,
        barrier: &Arc<std::sync::Barrier>,
        slot: &Arc<Mutex<Option<Vec<u8>>>>,
        arrivals: &Arc<Mutex<Vec<Instant>>>,
    ) -> JobResult {
        let (mut vm, global_err) = self.prepare_fork(cpu, job, irqs);
        vm.request_snapshot_at(boundary);
        let sink = {
            let (barrier, slot, arrivals) =
                (Arc::clone(barrier), Arc::clone(slot), Arc::clone(arrivals));
            move |img: Vec<u8>| {
                relock(&arrivals).push(Instant::now());
                *relock(&slot) = Some(img);
                barrier.wait();
            }
        };
        vm.set_snapshot_sink(Arc::new(sink));
        let exit = match global_err {
            Some(e) => Err(e),
            None => vm.boot(),
        };
        if relock(slot).is_none() {
            // Terminal before the boundary: this vCPU's contribution to
            // the cut is its terminal state; park from the outside so
            // the siblings' barrier still fills.
            relock(arrivals).push(Instant::now());
            *relock(slot) = Some(vm.snapshot_midflight());
            barrier.wait();
        }
        JobResult {
            job: cpu as usize,
            label: job.label.clone(),
            cpu,
            exit,
            stats: vm.stats(),
            checks: vm.pools.total_stats(),
            console: std::mem::take(&mut vm.console),
        }
    }

    /// Restores a coordinated image captured by [`Self::quiesce`] and
    /// runs every member on to terminal state, in cpu-id order. Member
    /// images go through the migration path ([`Vm::restore_migrated`]),
    /// so a coordinated image survives format-version bumps and
    /// compatible rebuilds like any other snapshot. The machine's vCPU
    /// count must match the image's.
    pub fn resume_quiesced(&mut self, image: &[u8]) -> Result<SmpReport, MigrateError> {
        let members = decode_quiesce(image)?;
        if members.len() != self.vcpus as usize {
            return Err(MigrateError::Image(SnapshotError::Malformed(format!(
                "coordinated image has {} members, machine has {} vCPUs",
                members.len(),
                self.vcpus
            ))));
        }
        let start = Instant::now();
        let mut per_cpu = Vec::with_capacity(members.len());
        for (cpu, member) in members.iter().enumerate() {
            let mut vm = self.template.fork_sparse(cpu as u32, &self.fork_plan);
            // Restore into the unbound fork first (pool images repopulate
            // the private registries), then reset this vCPU's plane slots
            // to the *restored* ranges and bind — the same bring-up order
            // `MetaPoolTable::publish_to_plane` + `bind_shared_at` use at
            // machine construction.
            vm.restore_migrated(member)?;
            if let Some(plane) = &self.plane {
                let base = self.slot_base[cpu];
                plane
                    .reset_slots(base, &vm.pools.live_ranges_by_pool())
                    .map_err(|e| {
                        MigrateError::Image(SnapshotError::Malformed(format!(
                            "member {cpu} pool ranges rejected by the plane: {}",
                            e.detail
                        )))
                    })?;
                vm.pools.bind_shared_at(plane, base);
            }
            let exit = vm.run();
            let r = JobResult {
                job: cpu,
                label: format!("resume:cpu{cpu}"),
                cpu: cpu as u32,
                exit,
                stats: vm.stats(),
                checks: vm.pools.total_stats(),
                console: std::mem::take(&mut vm.console),
            };
            per_cpu.push((cpu_report_of(&r), vec![r]));
        }
        let wall = start.elapsed();
        Ok(self.merge_report(per_cpu, wall))
    }

    /// Deterministic merge shared by [`Self::run`], [`Self::quiesce`]
    /// and [`Self::resume_quiesced`]: cpu-id order for stats, submission
    /// order for job results.
    fn merge_report(&self, per_cpu: Vec<(CpuReport, Vec<JobResult>)>, wall: Duration) -> SmpReport {
        let mut cpus = Vec::with_capacity(per_cpu.len());
        let mut job_results = Vec::new();
        for (rep, mut rs) in per_cpu {
            cpus.push(rep);
            job_results.append(&mut rs);
        }
        cpus.sort_by_key(|c| c.cpu);
        job_results.sort_by_key(|r| r.job);
        let mut merged = VmStats::default();
        for c in &cpus {
            merged.fold(&c.stats);
        }
        let max_cpu_cycles = cpus.iter().map(|c| c.stats.cycles).max().unwrap_or(0);
        let (final_epoch, retired_snapshots) = match &self.plane {
            Some(p) => (p.epoch(), p.retired_live()),
            None => (0, 0),
        };
        SmpReport {
            vcpus: self.vcpus,
            cpus,
            total_syscalls: merged.traps,
            merged,
            jobs: job_results,
            max_cpu_cycles,
            wall,
            final_epoch,
            retired_snapshots,
        }
    }
}

fn cpu_report_of(r: &JobResult) -> CpuReport {
    let mut rep = CpuReport {
        cpu: r.cpu,
        jobs: 1,
        ..CpuReport::default()
    };
    rep.stats.fold(&r.stats);
    rep.checks.merge(&r.checks);
    rep
}

// ---------------------------------------------------------------------------
// The coordinated-image container (`SVAQ`).
// ---------------------------------------------------------------------------

/// Magic of a coordinated multi-vCPU image: one `SVA1` member snapshot
/// per vCPU, captured at a consistent cut by [`SmpMachine::quiesce`].
pub const QUIESCE_MAGIC: [u8; 4] = *b"SVAQ";
/// Container format version. Member snapshots carry their own
/// [`crate::snapshot::SNAPSHOT_VERSION`] and migrate independently, so
/// this only versions the container framing.
pub const QUIESCE_VERSION: u32 = 1;

const QUIESCE_HEADER: usize = 28;

/// What [`SmpMachine::quiesce`] produced.
pub struct QuiesceOutcome {
    /// The coordinated `SVAQ` image (feed to
    /// [`SmpMachine::resume_quiesced`]).
    pub image: Vec<u8>,
    /// The full run's merged report — jobs continued to terminal state
    /// after the cut.
    pub report: SmpReport,
    /// Quiesce latency: time between the first vCPU parking at its safe
    /// point and the last (how long the earliest member held still).
    pub park_spread: Duration,
}

/// Frames member snapshots into an `SVAQ` container:
/// `magic | version u32 | members u32 | payload_len u64 | checksum u64`
/// then per member `len u64 | bytes`.
pub fn encode_quiesce(members: &[Vec<u8>]) -> Vec<u8> {
    let mut payload = Vec::new();
    for m in members {
        payload.extend_from_slice(&(m.len() as u64).to_le_bytes());
        payload.extend_from_slice(m);
    }
    let mut out = Vec::with_capacity(QUIESCE_HEADER + payload.len());
    out.extend_from_slice(&QUIESCE_MAGIC);
    out.extend_from_slice(&QUIESCE_VERSION.to_le_bytes());
    out.extend_from_slice(&(members.len() as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Splits an `SVAQ` container back into its member snapshots,
/// fail-closed (magic, version, member count, length, checksum).
pub fn decode_quiesce(bytes: &[u8]) -> Result<Vec<Vec<u8>>, SnapshotError> {
    if bytes.len() < QUIESCE_HEADER {
        return Err(SnapshotError::Truncated {
            need: QUIESCE_HEADER,
            have: bytes.len(),
        });
    }
    let magic: [u8; 4] = bytes[0..4].try_into().unwrap();
    if magic != QUIESCE_MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != QUIESCE_VERSION {
        return Err(SnapshotError::BadVersion {
            found: version,
            expected: QUIESCE_VERSION,
        });
    }
    let nmembers = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
    let checksum = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    if bytes.len() < QUIESCE_HEADER + payload_len {
        return Err(SnapshotError::Truncated {
            need: QUIESCE_HEADER + payload_len,
            have: bytes.len(),
        });
    }
    let payload = &bytes[QUIESCE_HEADER..QUIESCE_HEADER + payload_len];
    let computed = fnv64(payload);
    if computed != checksum {
        return Err(SnapshotError::Corrupt {
            stored: checksum,
            computed,
        });
    }
    let mut members = Vec::with_capacity(nmembers.min(64));
    let mut pos = 0usize;
    for i in 0..nmembers {
        if payload.len() - pos < 8 {
            return Err(SnapshotError::Malformed(format!(
                "member {i} length truncated"
            )));
        }
        let len = u64::from_le_bytes(payload[pos..pos + 8].try_into().unwrap()) as usize;
        pos += 8;
        if payload.len() - pos < len {
            return Err(SnapshotError::Malformed(format!(
                "member {i} body truncated ({len} bytes declared, {} left)",
                payload.len() - pos
            )));
        }
        members.push(payload[pos..pos + len].to_vec());
        pos += len;
    }
    if pos != payload.len() {
        return Err(SnapshotError::Malformed(format!(
            "{} trailing container bytes",
            payload.len() - pos
        )));
    }
    Ok(members)
}

// The worker threads borrow the machine and the run state across the
// scope; this pins down that every piece of the template VM is
// thread-shareable.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<SmpMachine>();
    assert_sync::<RunState>();
};
