//! Multi-vCPU SMP machine (DESIGN.md §4.9).
//!
//! [`SmpMachine`] runs `VmConfig::vcpus` virtual CPUs, one host thread
//! each. The state split:
//!
//! * **Shared**: the translated code image (`Arc<CodeImage>`, read-only;
//!   translation and superinstruction fusion happen once) and the
//!   scheduler's run queues and virtual clocks.
//! * **Private**: everything else. Each job runs on a fresh fork of the
//!   never-run template ([`Vm::fork_for_cpu`]), a plain clone: its
//!   memory copies only the pages the template has written, and its
//!   metapool table — registries, MRU lines, quarantine state and
//!   `CheckStats` — is its own, so every check, registration and drop
//!   takes the path a 1-vCPU machine takes. Thread state, kernel stack,
//!   recovery-domain stack, `VmStats`, console and trace sinks are the
//!   fork's too.
//!
//! Work arrives as [`SmpJob`]s on per-vCPU run queues. An idle vCPU
//! first drains its own queue, then *steals* from its neighbours
//! (`cpu+1, cpu+2, …` round-robin, stealing from the cold end) — but
//! only from a neighbour whose virtual clock (the cycles of the jobs it
//! has finished) is not behind its own — and finally parks on a condvar
//! until the fleet drains. A job that needs an interrupt raises it from
//! its setup hook ([`SmpJob::with_setup`]).
//!
//! [`SmpMachine::run`], [`SmpMachine::quiesce`] and
//! [`SmpMachine::resume_quiesced`] share one per-vCPU runner, one
//! [`JobResult`] builder and one merge. At halt the per-vCPU reports
//! are merged **deterministically in cpu-id order** and job results are
//! returned in submission order. With `vcpus == 1` no thread is spawned:
//! the single fork runs inline, so its `VmStats` are byte-identical to
//! the classic machine's. At any vCPU count a job ends with the same
//! exit, console and counters as the same job run alone.
//!
//! Throughput is reported in *virtual time*: the machine-level elapsed
//! time of a run is the maximum virtual cycle count over vCPUs (they
//! run concurrently), while syscalls served is the sum — so
//! `syscalls_per_mcycle` scales with vCPU count, since nothing on the
//! check path is shared between vCPUs. The steal rule keeps that
//! makespan a property of the machine rather than of host scheduling:
//! a vCPU whose host thread got a core first cannot drain the queues of
//! siblings still waiting for one. Wall-clock time is recorded too
//! ([`SmpReport::wall`]); it is the host-time view of the same run.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sva_ir::codec::{frame, unframe};
use sva_rt::{CheckStats, SharedMetaPlane};

use crate::migrate::MigrateError;
use crate::snapshot::{ImageReader, ImageWriter, SnapshotError};
use crate::vm::{Vm, VmError, VmExit, VmStats};

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
    /// Per-job setup run on the fresh fork before the globals are
    /// written — fault-injection campaigns arm a per-job plan and enable
    /// crash capture here.
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

impl JobResult {
    /// Job `job` as it ended on vCPU `cpu`: its exit and what its fork
    /// counted and printed.
    fn of(job: usize, label: String, cpu: u32, exit: Result<VmExit, VmError>, vm: Vm) -> JobResult {
        JobResult {
            job,
            label,
            cpu,
            exit,
            stats: vm.stats(),
            checks: vm.pools.total_stats(),
            console: vm.console,
        }
    }
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
    /// Always 0: no vCPU publishes to a metadata plane. Kept because
    /// `benchmark/src/smp.rs` reads it; it goes with the next change to
    /// the benchmark (ROADMAP item 6).
    pub final_epoch: u64,
    /// Always 0, for the same reason and with the same fate as
    /// [`Self::final_epoch`].
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
}

impl SmpMachine {
    /// Builds the machine around a pristine (never-run) template VM.
    /// `cfg.vcpus` on the template's config chooses the geometry.
    pub fn new(template: Vm) -> SmpMachine {
        let vcpus = template.cfg.vcpus.max(1);
        SmpMachine { template, vcpus }
    }

    /// Always `None`: every vCPU checks against its own fork's metapool
    /// table, and the machine builds no metadata plane. Kept because
    /// `benchmark/src/smp.rs` calls it; it goes with the next change to
    /// the benchmark (ROADMAP item 6).
    pub fn plane(&self) -> Option<&Arc<SharedMetaPlane>> {
        None
    }

    /// The pristine template machine.
    pub fn template(&self) -> &Vm {
        &self.template
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
        let start = Instant::now();
        let per_cpu = on_each_vcpu(vec![(); n], |cpu, ()| self.vcpu_loop(cpu, &state));
        self.merge_report(per_cpu, start.elapsed())
    }

    /// One vCPU's scheduler loop: own queue, then steal, then wait for a
    /// sibling to finish a job, then park once nothing is left to claim.
    fn vcpu_loop(&self, cpu: u32, state: &RunState) -> (CpuReport, Vec<JobResult>) {
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
            let job = &state.jobs[ji];
            let (mut vm, written) = self.prepare_fork(cpu, job);
            let exit = written.and_then(|()| vm.boot());
            let r = JobResult::of(ji, job.label.clone(), cpu, exit, vm);
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

    /// Forks the template for `cpu`, runs the job's setup hook and
    /// writes its globals — everything up to (but excluding) boot. A
    /// global that cannot be written is the job's exit.
    fn prepare_fork(&self, cpu: u32, job: &SmpJob) -> (Vm, Result<(), VmError>) {
        let mut vm = self.template.fork_for_cpu(cpu);
        if let Some(setup) = &job.setup {
            setup(&mut vm);
        }
        let written = job
            .globals
            .iter()
            .try_for_each(|(name, v)| vm.write_global_u64(name, *v));
        (vm, written)
    }

    /// Runs one **pinned** job per vCPU (`jobs[i]` on vCPU `i`, no
    /// stealing) and cuts every vCPU at instruction boundary `boundary`,
    /// capturing a coordinated multi-vCPU image (DESIGN.md §4.10).
    ///
    /// Each vCPU boots its fork under a [`Vm::run_steps`] countdown of
    /// `boundary`, takes its member image with
    /// [`Vm::snapshot_midflight`] where the countdown pauses it, then
    /// waits at a fleet-wide barrier, outside the interpreter loop, until
    /// every sibling has taken its own. The member images are therefore
    /// a consistent cut: no member has executed past its capture point
    /// while another's image was still forming. A job that reaches
    /// terminal state before its boundary contributes its terminal state
    /// as the member image. After the barrier releases, every vCPU runs
    /// its job on to terminal state, so the returned [`SmpReport`] is a
    /// complete run — the quiesce is a pause, not a stop.
    ///
    /// At `vcpus == 1` the single member is the classic machine's
    /// `run_steps` cut, so the member image is byte-identical to a solo
    /// mid-flight snapshot at the same boundary.
    ///
    /// # Panics
    ///
    /// Panics if `jobs.len() != vcpus` — quiesce is a whole-machine
    /// protocol; every vCPU must participate.
    pub fn quiesce(&mut self, jobs: Vec<SmpJob>, boundary: u64) -> QuiesceOutcome {
        assert_eq!(
            jobs.len(),
            self.vcpus as usize,
            "quiesce needs exactly one pinned job per vCPU"
        );
        let barrier = Barrier::new(jobs.len());
        let start = Instant::now();
        let cuts = on_each_vcpu(jobs, |cpu, job| {
            let (mut vm, written) = self.prepare_fork(cpu, &job);
            let cut = written.and_then(|()| vm.boot_steps(boundary));
            let member = vm.snapshot_midflight();
            let parked = Instant::now();
            barrier.wait();
            let exit = cut.transpose().unwrap_or_else(|| vm.run());
            let r = JobResult::of(cpu as usize, job.label, cpu, exit, vm);
            (member, parked, r)
        });
        let wall = start.elapsed();
        let parked = || cuts.iter().map(|c| c.1);
        let park_spread = match (parked().min(), parked().max()) {
            (Some(first), Some(last)) => last.duration_since(first),
            _ => Duration::ZERO,
        };
        let (members, results): (Vec<_>, Vec<_>) = cuts.into_iter().map(|c| (c.0, c.2)).unzip();
        QuiesceOutcome {
            image: encode_quiesce(&members),
            report: self.merge_report(pinned(results), wall),
            park_spread,
        }
    }

    /// Restores a coordinated image captured by [`Self::quiesce`] and
    /// runs every member on to terminal state, each on its own vCPU.
    /// Every member is restored before any member runs, so a member that
    /// fails to restore leaves nothing run. Member images go
    /// through the migration path ([`Vm::restore_migrated`]), so a
    /// coordinated image survives format-version bumps and compatible
    /// rebuilds like any other snapshot. The machine's vCPU count must
    /// match the image's.
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
        let forks = (0..)
            .zip(&members)
            .map(|(cpu, member)| {
                let mut vm = self.template.fork_for_cpu(cpu);
                vm.restore_migrated(member).map(|_| vm)
            })
            .collect::<Result<Vec<Vm>, _>>()?;
        let results = on_each_vcpu(forks, |cpu, mut vm| {
            let exit = vm.run();
            JobResult::of(cpu as usize, format!("resume:cpu{cpu}"), cpu, exit, vm)
        });
        Ok(self.merge_report(pinned(results), start.elapsed()))
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
        SmpReport {
            vcpus: self.vcpus,
            cpus,
            total_syscalls: merged.traps,
            merged,
            jobs: job_results,
            max_cpu_cycles,
            wall,
            final_epoch: 0,
            retired_snapshots: 0,
        }
    }
}

/// The one per-vCPU runner of [`SmpMachine::run`],
/// [`SmpMachine::quiesce`] and [`SmpMachine::resume_quiesced`]: `work`
/// runs once per vCPU on that vCPU's input. One input runs inline, with
/// no thread (the classic machine's path); more run on one scoped host
/// thread each. Outputs come back in cpu-id order.
fn on_each_vcpu<I: Send, R: Send>(inputs: Vec<I>, work: impl Fn(u32, I) -> R + Sync) -> Vec<R> {
    if inputs.len() == 1 {
        return inputs.into_iter().map(|input| work(0, input)).collect();
    }
    std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = (0..)
            .zip(inputs)
            .map(|(cpu, input)| s.spawn(move || work(cpu, input)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("vCPU thread panicked"))
            .collect()
    })
}

/// Per-vCPU reports of a pinned run, in which each vCPU ran one job.
fn pinned(results: Vec<JobResult>) -> Vec<(CpuReport, Vec<JobResult>)> {
    results
        .into_iter()
        .map(|r| {
            let mut rep = CpuReport {
                cpu: r.cpu,
                jobs: 1,
                ..CpuReport::default()
            };
            rep.stats.fold(&r.stats);
            rep.checks.merge(&r.checks);
            (rep, vec![r])
        })
        .collect()
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

/// Frames member snapshots into an `SVAQ` container: the shared header
/// with the member count (`u32`) as its extra field, then per member
/// `len u64 | bytes`.
pub fn encode_quiesce(members: &[Vec<u8>]) -> Vec<u8> {
    let mut w = ImageWriter::new();
    for m in members {
        w.bytes(m);
    }
    let count = (members.len() as u32).to_le_bytes();
    frame(QUIESCE_MAGIC, QUIESCE_VERSION, &count, w.as_bytes())
}

/// Splits an `SVAQ` container back into its member snapshots,
/// fail-closed (magic, version, member count, length, checksum).
pub fn decode_quiesce(bytes: &[u8]) -> Result<Vec<Vec<u8>>, SnapshotError> {
    let f = unframe(bytes, QUIESCE_MAGIC, QUIESCE_VERSION..=QUIESCE_VERSION, 4)?;
    let n = ImageReader::new(f.extra).u32()?;
    let r = &mut ImageReader::new(f.payload);
    let members = (0..r.count(n as u64, 8)?)
        .map(|_| r.bytes().map(<[u8]>::to_vec))
        .collect::<Result<_, _>>()?;
    r.finish()?;
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
