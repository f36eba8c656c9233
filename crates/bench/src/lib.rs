//! Shared measurement harness for the paper-table benchmarks.
//!
//! Every table compares the four kernel configurations of §7.1:
//! `native`, `sva-gcc`, `sva-llvm`, `sva-safe`. A measurement boots a
//! cached kernel image with a chosen user workload and records wall time,
//! virtual cycles and executed instructions. Overheads are reported the
//! way the paper reports them: `100 × (T_other − T_native) / T_native`.

use std::time::{Duration, Instant};

use sva_kernel::harness::{boot_user, make_vm_cfg, make_vm_traced, pack_arg};
use sva_trace::{RingConfig, RingTracer};
use sva_vm::{KernelKind, SmpJob, SmpMachine, SmpReport, VmConfig, VmExit, VmStats};

pub use sva_kernel::harness::pack_arg as pack;

pub mod prof;

/// One measured run.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Wall-clock duration of the booted workload.
    pub wall: Duration,
    /// Virtual cycles consumed.
    pub cycles: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Exit code.
    pub exit: u64,
    /// Metapool lookups served by the MRU cache (sva-safe only).
    pub cache_hits: u64,
    /// Metapool lookups served by the page index (sva-safe only).
    pub page_hits: u64,
    /// Metapool lookups that walked the splay tree (sva-safe only).
    pub tree_walks: u64,
    /// Metapool lookups answered by the singleton two-compare test
    /// (sva-safe only).
    pub singleton_hits: u64,
    /// Superinstructions dispatched by the optimizing tier (opt runs only).
    pub fused_execs: u64,
}

/// Boots `prog(arg)` on a `kind` kernel and measures it.
///
/// # Panics
///
/// Panics if the workload does not halt cleanly — benchmarks must not
/// trip safety checks.
pub fn run_workload(kind: KernelKind, prog: &str, arg: u64) -> Sample {
    run_workload_cfg(
        VmConfig {
            kind,
            ..Default::default()
        },
        prog,
        arg,
    )
}

/// Like [`run_workload`] with a full [`VmConfig`] — the opt-level /
/// singleton ablation entry point.
///
/// # Panics
///
/// Panics like [`run_workload`] if the workload does not halt cleanly.
pub fn run_workload_cfg(cfg: VmConfig, prog: &str, arg: u64) -> Sample {
    let kind = cfg.kind;
    let mut vm = make_vm_cfg(cfg);
    let start = Instant::now();
    let exit = boot_user(&mut vm, prog, arg)
        .unwrap_or_else(|e| panic!("{kind:?} {prog}: {e}\nbacktrace: {:?}", vm.backtrace()));
    let wall = start.elapsed();
    let code = match exit {
        VmExit::Halted(c) | VmExit::Returned(c) => c,
    };
    assert_eq!(code, 0, "{kind:?} {prog}: nonzero exit {code}");
    let VmStats {
        instructions,
        cycles,
        cache_hits,
        page_hits,
        tree_walks,
        singleton_hits,
        fused_execs,
        ..
    } = vm.stats();
    Sample {
        wall,
        cycles,
        instructions,
        exit: code,
        cache_hits,
        page_hits,
        tree_walks,
        singleton_hits,
        fused_execs,
    }
}

/// Like [`run_workload`] but with a [`RingTracer`] attached, returning the
/// tracer alongside the sample. The VM's cumulative check counters are
/// folded into the tracer's metrics registry before it is handed back, so
/// exporters see both the event-derived profile and the authoritative
/// `CheckStats` totals.
///
/// # Panics
///
/// Panics like [`run_workload`] if the workload does not halt cleanly.
pub fn run_workload_traced(
    kind: KernelKind,
    prog: &str,
    arg: u64,
    cfg: RingConfig,
) -> (Sample, RingTracer) {
    let mut vm = make_vm_traced(kind, RingTracer::new(cfg));
    let start = Instant::now();
    let exit = boot_user(&mut vm, prog, arg)
        .unwrap_or_else(|e| panic!("{kind:?} {prog}: {e}\nbacktrace: {:?}", vm.backtrace()));
    let wall = start.elapsed();
    let code = match exit {
        VmExit::Halted(c) | VmExit::Returned(c) => c,
    };
    assert_eq!(code, 0, "{kind:?} {prog}: nonzero exit {code}");
    let VmStats {
        instructions,
        cycles,
        cache_hits,
        page_hits,
        tree_walks,
        singleton_hits,
        fused_execs,
        ..
    } = vm.stats();
    let pool_stats = vm.pools.total_stats();
    pool_stats.fold_into(vm.tracer_mut().metrics_mut());
    // The self-healing counters (DESIGN.md §4.8) ride the same registry so
    // the nightly `svaprof --prom-diff` tracks repair/probation drift.
    let s = vm.stats();
    let m = vm.tracer_mut().metrics_mut();
    m.set_counter("recovery.repairs", s.repairs);
    m.set_counter("recovery.pools_repaired", s.pools_repaired);
    m.set_counter("recovery.probation_passed", s.probation_passed);
    m.set_counter("recovery.probation_failed", s.probation_failed);
    m.set_counter("recovery.subsys_retired", s.subsys_retired);
    let sample = Sample {
        wall,
        cycles,
        instructions,
        exit: code,
        cache_hits,
        page_hits,
        tree_walks,
        singleton_hits,
        fused_execs,
    };
    (sample, vm.into_tracer())
}

/// Runs a workload on all four configurations.
pub fn run_all(prog: &str, arg: u64) -> [(KernelKind, Sample); 4] {
    KernelKind::ALL.map(|k| (k, run_workload(k, prog, arg)))
}

/// Percentage overhead relative to a baseline (paper's reporting unit).
pub fn pct_over(native: f64, other: f64) -> f64 {
    if native == 0.0 {
        0.0
    } else {
        100.0 * (other - native) / native
    }
}

/// A row of a latency table: label + per-iteration baseline + overheads.
pub struct LatencyRow {
    /// Row label (e.g. `"getpid"`).
    pub label: String,
    /// Native per-iteration latency in microseconds of wall time.
    pub native_us: f64,
    /// Overheads (%) for sva-gcc, sva-llvm, sva-safe.
    pub over: [f64; 3],
    /// Cycle-count overheads (%) — the deterministic view.
    pub cyc_over: [f64; 3],
}

/// Wall-clock repetitions per configuration (minimum is reported, cutting
/// scheduler noise; virtual cycles are deterministic and need one run).
pub const WALL_REPS: usize = 3;

/// Runs a workload several times, keeping the fastest wall time (cycles
/// and instructions are identical across runs).
pub fn run_workload_min(kind: KernelKind, prog: &str, arg: u64) -> Sample {
    let mut best = run_workload(kind, prog, arg);
    for _ in 1..WALL_REPS {
        let s = run_workload(kind, prog, arg);
        if s.wall < best.wall {
            best.wall = s.wall;
        }
    }
    best
}

/// Measures one workload row across configurations.
///
/// `iters` is how many operations the workload performs; per-op latency is
/// total/iters. A warmup run (the kernel image build) happens on first use
/// via the harness cache.
pub fn latency_row(label: &str, prog: &str, arg: u64, iters: u64) -> LatencyRow {
    let samples = KernelKind::ALL.map(|k| (k, run_workload_min(k, prog, arg)));
    let native = &samples[0].1;
    let nus = native.wall.as_secs_f64() * 1e6 / iters as f64;
    let mut over = [0.0; 3];
    let mut cyc_over = [0.0; 3];
    for (i, (_, s)) in samples.iter().skip(1).enumerate() {
        over[i] = pct_over(native.wall.as_secs_f64(), s.wall.as_secs_f64());
        cyc_over[i] = pct_over(native.cycles as f64, s.cycles as f64);
    }
    LatencyRow {
        label: label.to_string(),
        native_us: nus,
        over,
        cyc_over,
    }
}

/// Prints a latency table in the paper's Table 5/7 format.
pub fn print_latency_table(title: &str, rows: &[LatencyRow]) {
    println!("\n== {title} ==");
    println!(
        "{:<22} {:>12} {:>10} {:>10} {:>10}   {:>24}",
        "Test", "Native (us)", "gcc (%)", "llvm (%)", "Safe (%)", "[cycle-count overheads]"
    );
    for r in rows {
        println!(
            "{:<22} {:>12.3} {:>10.1} {:>10.1} {:>10.1}   {:>6.1} {:>6.1} {:>6.1}",
            r.label,
            r.native_us,
            r.over[0],
            r.over[1],
            r.over[2],
            r.cyc_over[0],
            r.cyc_over[1],
            r.cyc_over[2]
        );
    }
}

/// A bandwidth row: MB/s baseline + percentage *reductions*.
pub struct BandwidthRow {
    /// Row label.
    pub label: String,
    /// Native bandwidth in MB/s.
    pub native_mbs: f64,
    /// Reductions (%) for sva-gcc, sva-llvm, sva-safe.
    pub reduction: [f64; 3],
}

/// Measures a bandwidth workload that moves `bytes` bytes in total.
///
/// Reductions are computed on *virtual cycles* (deterministic, calibrated);
/// the native MB/s column uses wall time.
pub fn bandwidth_row(label: &str, prog: &str, arg: u64, bytes: u64) -> BandwidthRow {
    let samples = KernelKind::ALL.map(|k| (k, run_workload_min(k, prog, arg)));
    let native_mbs = (bytes as f64 / 1e6) / samples[0].1.wall.as_secs_f64();
    let ncyc = samples[0].1.cycles as f64;
    let mut reduction = [0.0; 3];
    for (i, (_, s)) in samples.iter().skip(1).enumerate() {
        // Bandwidth ∝ 1/time: reduction = 1 − native_cycles/other_cycles.
        reduction[i] = 100.0 * (1.0 - ncyc / s.cycles as f64);
    }
    BandwidthRow {
        label: label.to_string(),
        native_mbs,
        reduction,
    }
}

/// Prints a bandwidth table in the paper's Table 6/8 format.
pub fn print_bandwidth_table(title: &str, rows: &[BandwidthRow]) {
    println!("\n== {title} ==");
    println!(
        "{:<22} {:>14} {:>10} {:>10} {:>10}",
        "Test", "Native (MB/s)", "gcc (%)", "llvm (%)", "Safe (%)"
    );
    for r in rows {
        println!(
            "{:<22} {:>14.2} {:>10.1} {:>10.1} {:>10.1}",
            r.label, r.native_mbs, r.reduction[0], r.reduction[1], r.reduction[2]
        );
    }
}

/// Convenience: packed workload argument.
pub fn arg(iters: u64, size: u64, mode: u64) -> u64 {
    pack_arg(iters, size, mode)
}

// ---- SMP scaling curve (DESIGN.md §4.9) ------------------------------------

/// The scaling workload: three syscall-heavy programs, one full set per
/// vCPU, so per-CPU work stays constant as N grows and the curve
/// isolates what sharing the check path costs. Arguments are pre-packed
/// `pack_arg(iters, size, mode)` words.
pub const SCALING_CORPUS: [(&str, u64); 3] = [
    ("user_getpid_loop", 200),
    ("user_write_loop", 80 | (64 << 24)),
    ("user_openclose_loop", 60),
];

/// Repetitions of each scaling point. The point's host wall time is the
/// fastest of them: the host gate compares throughputs, and the fastest
/// repetition is the one least disturbed by other work on the host.
pub const SCALING_REPS: u32 = 5;

/// One point on the syscalls/sec-vs-vCPUs scaling curve.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPoint {
    /// vCPU count of the machine.
    pub vcpus: u32,
    /// Jobs submitted (one corpus set per vCPU).
    pub jobs: u32,
    /// Syscalls executed across all vCPUs (deterministic).
    pub total_syscalls: u64,
    /// Virtual cycles of the busiest vCPU — the machine's virtual
    /// makespan — in the repetition where it was largest.
    pub max_cpu_cycles: u64,
    /// Merged virtual cycles across all vCPUs (deterministic).
    pub total_cycles: u64,
    /// Throughput: syscalls per million virtual cycles of makespan.
    pub syscalls_per_mcycle: f64,
    /// Host wall time of the fastest repetition.
    pub wall: Duration,
    /// Repetitions `wall` is the fastest of.
    pub reps: u32,
}

impl ScalingPoint {
    /// Merged cycles per syscall — the deterministic per-check-path cost
    /// the nightly gate compares (makespan-based throughput wobbles by
    /// up to one job's worth of steal skew; this does not).
    pub fn cycles_per_syscall(&self) -> f64 {
        if self.total_syscalls == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.total_syscalls as f64
        }
    }

    /// Host throughput: syscalls per second of the fastest repetition.
    pub fn host_syscalls_per_s(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.total_syscalls as f64 / secs
        }
    }
}

/// An `vcpus`-wide [`SmpMachine`] on the sva-safe kernel at opt 2 (the
/// configuration the paper's overhead story is about) and its scaling
/// batch: one full [`SCALING_CORPUS`] set per vCPU.
fn scaling_batch(vcpus: u32) -> (SmpMachine, Vec<SmpJob>) {
    let template = make_vm_cfg(VmConfig {
        kind: KernelKind::SvaSafe,
        opt_level: 2,
        vcpus,
        ..Default::default()
    });
    let mut jobs = Vec::new();
    for _ in 0..vcpus {
        for (prog, a) in SCALING_CORPUS {
            let addr = template
                .func_address(prog)
                .expect("scaling corpus program exists");
            jobs.push(SmpJob::boot_user(prog, addr, a));
        }
    }
    (SmpMachine::new(template), jobs)
}

/// Runs the scaling batch once, panicking if any job fails.
fn run_clean(smp: &mut SmpMachine, jobs: &[SmpJob]) -> SmpReport {
    let r = smp.run(jobs.to_vec());
    let failures: Vec<String> = r
        .failures()
        .iter()
        .map(|j| format!("{} on cpu {}: {:?}", j.label, j.cpu, j.exit))
        .collect();
    assert!(failures.is_empty(), "scaling jobs failed: {failures:?}");
    r
}

/// Measures the curve at each requested vCPU count, [`SCALING_REPS`]
/// times. The repetitions are interleaved — every count runs once per
/// round — so a slow spell on a shared host lands on all points alike
/// instead of on whichever point happened to be running.
///
/// # Panics
///
/// Panics if any job fails — the scaling corpus must run clean at every
/// vCPU count — or if two repetitions of a point disagree on the merged
/// syscalls or cycles.
pub fn scaling_curve(vcpus: &[u32]) -> Vec<ScalingPoint> {
    let mut runs: Vec<(SmpMachine, Vec<SmpJob>, ScalingPoint)> = vcpus
        .iter()
        .map(|&n| {
            let (smp, jobs) = scaling_batch(n);
            let point = ScalingPoint {
                vcpus: n,
                jobs: jobs.len() as u32,
                total_syscalls: 0,
                max_cpu_cycles: 0,
                total_cycles: 0,
                syscalls_per_mcycle: 0.0,
                wall: Duration::MAX,
                reps: 0,
            };
            (smp, jobs, point)
        })
        .collect();
    for _ in 0..SCALING_REPS {
        for (smp, jobs, p) in &mut runs {
            let r = run_clean(smp, jobs);
            if p.reps == 0 {
                p.total_syscalls = r.total_syscalls;
                p.total_cycles = r.merged.cycles;
            }
            assert_eq!(
                (r.total_syscalls, r.merged.cycles),
                (p.total_syscalls, p.total_cycles),
                "{} vCPUs: repetition {} merged different totals",
                p.vcpus,
                p.reps
            );
            p.max_cpu_cycles = p.max_cpu_cycles.max(r.max_cpu_cycles);
            p.wall = p.wall.min(r.wall);
            p.reps += 1;
        }
    }
    runs.into_iter()
        .map(|(_, _, mut p)| {
            if p.max_cpu_cycles > 0 {
                p.syscalls_per_mcycle = p.total_syscalls as f64 / (p.max_cpu_cycles as f64 / 1e6);
            }
            p
        })
        .collect()
}

/// Speedup of each point's throughput over the curve's 1-vCPU point
/// (0.0 when the curve has no such point).
pub fn scaling_speedup(points: &[ScalingPoint], p: &ScalingPoint) -> f64 {
    points
        .iter()
        .find(|q| q.vcpus == 1)
        .filter(|q| q.syscalls_per_mcycle > 0.0)
        .map(|q| p.syscalls_per_mcycle / q.syscalls_per_mcycle)
        .unwrap_or(0.0)
}

/// Host-throughput speedup of each point over the curve's 1-vCPU point
/// (0.0 when the curve has no such point).
pub fn host_scaling_speedup(points: &[ScalingPoint], p: &ScalingPoint) -> f64 {
    points
        .iter()
        .find(|q| q.vcpus == 1)
        .filter(|q| q.host_syscalls_per_s() > 0.0)
        .map(|q| p.host_syscalls_per_s() / q.host_syscalls_per_s())
        .unwrap_or(0.0)
}

/// Renders the curve as the `scaling.json` artifact: a JSON array, one
/// flat object per line (the same line-oriented shape `bench_gate`
/// parses for `checks_micro`). `wall_ms` is the fastest of `reps`
/// repetitions.
pub fn scaling_json(points: &[ScalingPoint]) -> String {
    let mut out = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"vcpus\":{},\"jobs\":{},\"total_syscalls\":{},\"max_cpu_cycles\":{},\
             \"total_cycles\":{},\"syscalls_per_mcycle\":{:.4},\"cycles_per_syscall\":{:.4},\
             \"speedup_vs_1\":{:.4},\"wall_ms\":{:.3},\"reps\":{}}}{}\n",
            p.vcpus,
            p.jobs,
            p.total_syscalls,
            p.max_cpu_cycles,
            p.total_cycles,
            p.syscalls_per_mcycle,
            p.cycles_per_syscall(),
            scaling_speedup(points, p),
            p.wall.as_secs_f64() * 1e3,
            p.reps,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    out
}

/// Prints the scaling curve as a table: virtual-makespan throughput
/// first, then host throughput over the fastest repetition.
pub fn print_scaling_table(points: &[ScalingPoint]) {
    println!("\n== sva-safe SMP scaling: syscalls per Mcycle of virtual makespan, and per host second ==");
    println!(
        "{:>6} {:>6} {:>10} {:>14} {:>12} {:>10} {:>10} {:>12} {:>10}",
        "vcpus",
        "jobs",
        "syscalls",
        "max cycles",
        "sys/Mcyc",
        "speedup",
        "wall (ms)",
        "host sys/s",
        "host x"
    );
    for p in points {
        println!(
            "{:>6} {:>6} {:>10} {:>14} {:>12.2} {:>9.2}x {:>10.2} {:>12.0} {:>9.2}x",
            p.vcpus,
            p.jobs,
            p.total_syscalls,
            p.max_cpu_cycles,
            p.syscalls_per_mcycle,
            scaling_speedup(points, p),
            p.wall.as_secs_f64() * 1e3,
            p.host_syscalls_per_s(),
            host_scaling_speedup(points, p)
        );
    }
}

/// Runs the scaling corpus on an `vcpus`-wide [`SmpMachine`] and folds
/// every vCPU's counters into one registry via
/// [`MetricsRegistry::fold_cpu`]: each check/recovery/scheduler counter
/// appears both under `cpu<id>.<name>` and summed into the unprefixed
/// machine total. `svaprof --vcpus N --prom` serializes the result so the
/// nightly `--prom-diff` tracks per-vCPU `recovery.*` and `check.*` drift
/// night over night (DESIGN.md §4.9).
///
/// # Panics
///
/// Panics if any corpus job fails — same contract as [`scaling_curve`].
pub fn smp_metrics(vcpus: u32) -> sva_trace::MetricsRegistry {
    use sva_trace::MetricsRegistry;
    let (mut smp, jobs) = scaling_batch(vcpus);
    let r = run_clean(&mut smp, &jobs);
    let mut m = MetricsRegistry::new();
    for c in &r.cpus {
        let mut per_cpu = MetricsRegistry::new();
        c.checks.fold_into(&mut per_cpu);
        per_cpu.set_counter("recovery.repairs", c.stats.repairs);
        per_cpu.set_counter("recovery.pools_repaired", c.stats.pools_repaired);
        per_cpu.set_counter("recovery.probation_passed", c.stats.probation_passed);
        per_cpu.set_counter("recovery.probation_failed", c.stats.probation_failed);
        per_cpu.set_counter("recovery.subsys_retired", c.stats.subsys_retired);
        per_cpu.set_counter("sched.jobs", c.jobs as u64);
        per_cpu.set_counter("sched.steals", c.steals);
        per_cpu.set_counter("sched.parks", c.parks);
        per_cpu.set_counter("sched.irqs_routed", c.irqs_routed);
        m.fold_cpu(c.cpu, &per_cpu);
    }
    m
}

/// Prints, for each workload, where the sva-safe configuration's metapool
/// lookups resolved: MRU cache, page index, or splay tree. Each row is one
/// `(label, prog, arg)` workload booted once under [`KernelKind::SvaSafe`].
pub fn print_check_breakdown(title: &str, rows: &[(&str, &str, u64)]) {
    println!("\n== {title} ==");
    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>12} {:>8}",
        "Test", "singleton", "cache hits", "page hits", "tree walks", "tree %"
    );
    for (label, prog, a) in rows {
        let s = run_workload(KernelKind::SvaSafe, prog, *a);
        let total = s.singleton_hits + s.cache_hits + s.page_hits + s.tree_walks;
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * s.tree_walks as f64 / total as f64
        };
        println!(
            "{:<22} {:>10} {:>12} {:>12} {:>12} {:>7.1}%",
            label, s.singleton_hits, s.cache_hits, s.page_hits, s.tree_walks, pct
        );
    }
}
