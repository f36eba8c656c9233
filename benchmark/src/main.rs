//! `svabench`: host wall-clock benchmark of the SVA reproduction.
//!
//! ```text
//! svabench run --workload <W> --seed <S> [--seconds <N>] [--trace 0|1]
//! svabench compare <parent.jsonl> <change.jsonl>
//! svabench ledger --out <file> --heldout <S>
//! ```
//!
//! `run` measures one workload in this process for `--seconds`, checks
//! the guest's outputs, prints every metric by name and unit, and ends
//! with one JSON line. See README.md for the workloads and metrics.

mod compare;
mod fault;
mod hostclock;
mod json;
mod metrics;
mod rng;
mod setup;
mod smp;
mod solo;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sva_kernel::build::KernelOptions;
use sva_rt::CheckStats;
use sva_vm::{VmConfig, VmStats};

use crate::hostclock::HostClock;
use crate::json::Json;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::solo::{Rungs, SAFE};
use crate::stats::{median, tail};

pub const WORKLOADS: [&str; 4] = ["syscall_mix", "copy_apps", "smp_churn", "fault_checkpoint"];
/// The seed `run` and `ledger` use when none is given.
pub const DEFAULT_SEED: u64 = 1;
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Write and pipe chunk sizes in bytes.
pub const CHUNKS: [u64; 4] = [32, 64, 128, 256];
/// `setup_s` is the median of at least this many cold set-ups.
const MIN_SETUPS: usize = 60;
/// In a traced run, the share of `--seconds` spent in the closed loop;
/// the rest goes to the set-up breakdown, probes and the traced rep.
const TRACED_LOOP_SHARE: f64 = 0.6;
/// Typical median time of [`host_sample`] on the reference host, a
/// shared 2-vCPU virtual machine on an Intel Xeon. The metrics in
/// [`AT_REFERENCE_SPEED`] are reported at this host speed.
const HOST_REFERENCE_S: f64 = 0.006;
/// How often the closed loop times a [`host_sample`]: often enough that
/// the samples cover the run evenly, at about 2% of its time.
const HOST_SAMPLE_EVERY: Duration = Duration::from_millis(250);
/// The host-time metrics reported at the reference host's speed: every
/// end-to-end timing, and the bounded per-layer throughput and medians.
/// The two latency tails stay raw: scaled, they spread twice as wide
/// from seed to seed. `true` marks a throughput (it grows as the host
/// speeds up), `false` a time.
const AT_REFERENCE_SPEED: [(&str, bool); 6] = [
    ("guest_mips", true),
    ("syscalls_per_s", true),
    ("setup_s", false),
    ("sva-inject.cells_per_s", true),
    ("sva-vm.snapshot.snapshot_ms_p50", false),
    ("sva-vm.snapshot.restore_ms_p50", false),
];

/// One `run`: the workload's inputs, its budget, and what it measured.
pub struct Bench {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    seconds: f64,
    start: Instant,
    attempted: u64,
    failed: u64,
    checks_ok: bool,
    notes: Vec<String>,
    digest: u64,
    setup_s: Vec<f64>,
    /// Host-speed samples ([`host_sample`]), taken between operations.
    host_s: Vec<f64>,
    last_host_sample: Instant,
    pub values: Values,
}

impl Bench {
    /// Counts one operation (a guest program run, an SMP job, a cell).
    pub fn op(&mut self, ok: bool) {
        self.ops(1, u64::from(!ok));
    }

    /// Counts operations, and between two of them takes a host-speed
    /// sample once [`HOST_SAMPLE_EVERY`] has passed since the last one.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if self.last_host_sample.elapsed() >= HOST_SAMPLE_EVERY {
            self.host_s.push(host_sample());
            self.last_host_sample = Instant::now();
        }
    }

    /// A check on the run as a whole.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.checks_ok = false;
            self.note(what.to_string());
        }
    }

    pub fn note(&mut self, what: String) {
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }

    pub fn say(&self, what: String) {
        println!("{}: {what}", self.workload);
    }

    /// Folds one line into `sim_digest` (FNV-1a).
    pub fn digest_line(&mut self, line: &str) {
        for byte in line.bytes().chain([b'\n']) {
            self.digest ^= u64::from(byte);
            self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn digest(&mut self, stats: &VmStats, checks: &CheckStats) {
        self.digest_line(&format!("{stats:?} {checks:?}"));
    }

    /// When the closed loop stops starting new work.
    pub fn deadline(&self) -> Instant {
        let share = if self.trace { TRACED_LOOP_SHARE } else { 1.0 };
        self.start + Duration::from_secs_f64(self.seconds * share)
    }

    /// The first cold set-up, which also yields the kernels the workload
    /// runs.
    pub fn first_setup(&mut self, opts: &KernelOptions, loads: &[VmConfig]) -> setup::Kernels {
        let (kernels, secs) = setup::cold(opts, loads);
        self.setup_s.push(secs);
        kernels
    }

    /// What runs between two reps of the closed loop: `setups` more cold
    /// set-ups, so that `setup_s` samples the whole run.
    pub fn between_reps(&mut self, opts: &KernelOptions, loads: &[VmConfig], setups: usize) {
        for _ in 0..setups {
            self.setup_s.push(setup::cold(opts, loads).1);
        }
    }

    /// Reports the traced rep: host-time trap and SVA-OS spans, and what
    /// tracing cost against the untraced run of the same work.
    pub fn traced(&mut self, clock: HostClock, plain_s: f64, traced_s: f64) {
        let t = tail(&clock.trap_ns);
        let v = &mut self.values;
        v.set("sva-vm.trap_ns_p50", median(&clock.trap_ns));
        v.set("sva-vm.trap_ns_tail", t.value);
        v.set("sva-vm.trap_samples", t.samples as f64);
        v.set("sva-vm.os_op_ns_mean", clock.os_op_ns_mean());
        v.set("sva-vm.os_ops", clock.os_ops as f64);
        v.set("sva-vm.trap_self_share", clock.trap_self_share());
        v.set(
            "sva-trace.overhead_pct",
            100.0 * (traced_s - plain_s) / plain_s,
        );
        self.say(format!(
            "traced rep: trap tail is p{} of {} samples",
            t.percentile, t.samples
        ));
        let path = PathBuf::from("target/svabench").join(format!("{}.trace.json", self.workload));
        match clock.write_chrome(&path, self.workload) {
            Ok(()) => self.say(format!("trace written to {}", path.display())),
            Err(e) => self.say(format!("cannot write {}: {e}", path.display())),
        }
    }
}

/// The ladder rungs (native, sva-llvm, sva-safe) of a workload: the two
/// overheads, what each rung's extra layer costs in host time, and the
/// sva-safe rung's counters.
pub fn ladder_metrics(rungs: &Rungs, v: &mut Values) {
    let cycles = |k: usize| rungs.stats[k].cycles as f64;
    let wall = |k: usize| rungs.wall(k);
    v.set("host_overhead_pct", 100.0 * (rungs.ratio(SAFE, 0) - 1.0));
    v.set(
        "vcycle_overhead_pct",
        100.0 * (cycles(SAFE) - cycles(0)) / cycles(0),
    );
    let check_ms = (wall(SAFE) - wall(1)) * 1e3;
    v.set("sva-vm.os_host_ms", (wall(1) - wall(0)) * 1e3);
    v.set("sva-rt.check_host_ms", check_ms);
    for (k, name) in [
        "sva-vm.ns_per_inst.native",
        "sva-vm.ns_per_inst.llvm",
        "sva-vm.ns_per_inst.safe",
    ]
    .into_iter()
    .enumerate()
    {
        v.set(
            name,
            wall(k) * 1e9 / rungs.stats[k].instructions.max(1) as f64,
        );
    }
    let (s, c) = (&rungs.stats[SAFE], &rungs.checks[SAFE]);
    let checks = c.total_checks();
    v.set("sva-vm.instructions", s.instructions as f64);
    v.set("sva-vm.vcycles", s.cycles as f64);
    v.set("sva-vm.fused_execs", s.fused_execs as f64);
    v.set("sva-vm.traps", s.traps as f64);
    v.set("sva-vm.context_switches", s.context_switches as f64);
    v.set("sva-vm.interrupts", s.interrupts as f64);
    v.set("sva-rt.checks", checks as f64);
    v.set("sva-rt.range_checks", s.range_checks as f64);
    v.set("sva-rt.lookup.singleton", c.singleton_hits as f64);
    v.set("sva-rt.lookup.cache", c.cache_hits as f64);
    v.set("sva-rt.lookup.page", c.page_hits as f64);
    v.set("sva-rt.lookup.tree", c.tree_walks as f64);
    let past_singleton = c.cache_hits + c.page_hits + c.tree_walks;
    v.set(
        "sva-rt.mru_hit_ratio",
        if past_singleton == 0 {
            0.0
        } else {
            c.cache_hits as f64 / past_singleton as f64
        },
    );
    v.set(
        "sva-rt.ns_per_check",
        if checks == 0 {
            0.0
        } else {
            check_ms * 1e6 / checks as f64
        },
    );
    v.set("sva-rt.registrations", c.registrations as f64);
    v.set("sva-rt.drops", c.drops as f64);
}

/// Layers only one workload exercises, by workload; they count 0 on the
/// others.
const OWN_LAYERS: [(&str, &[&str]); 2] = [
    (
        "smp_churn",
        &[
            "sva-rt.shared.publishes",
            "sva-rt.shared.publish_share",
            "sva-vm.smp.steals",
            "sva-vm.smp.parks",
            "sva-vm.smp.retired_snapshots",
            "sva-vm.smp.speedup",
        ],
    ),
    (
        "fault_checkpoint",
        &[
            "sva-vm.snapshot.image_kb",
            "sva-vm.snapshot.snapshot_ms_p50",
            "sva-vm.snapshot.snapshot_ms_tail",
            "sva-vm.snapshot.restore_ms_p50",
            "sva-vm.snapshot.restore_ms_tail",
            "sva-vm.snapshot.samples",
            "sva-vm.migrate.reencode_ms",
            "sva-vm.migrate.restore_ms",
            "sva-vm.bundle.encode_ms",
            "sva-vm.bundle.decode_ms",
            "sva-vm.cell_run_ms_p50",
            "sva-vm.cell_run_ms_tail",
            "sva-inject.cells_per_s",
            "sva-inject.faults_injected",
            "sva-vm.violations_recovered",
            "sva-vm.domains_pushed",
            "sva-vm.repairs",
        ],
    ),
];

fn unused_layers(workload: &str, v: &mut Values) {
    for (owner, names) in OWN_LAYERS {
        if workload != owner {
            for name in names {
                v.set(name, 0.0);
            }
        }
    }
}

/// A fixed piece of host work that shares no code with the system under
/// test: branchy hashing over a fresh 1 MiB buffer, then filling a fresh
/// 2 MiB one. The shared host this benchmark was built on
/// drifts in speed by up to a third over minutes, and everything slows
/// together: interpreter, set-up and this sample alike. Dividing host
/// times by this sample's median (relative to [`HOST_REFERENCE_S`])
/// removes that drift and leaves what the code under test changed.
fn host_sample() -> f64 {
    let t = Instant::now();
    let mut buf = vec![0x9e37_79b9_7f4a_7c15_u64; 1 << 17];
    let n = buf.len();
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for round in 0..4 {
        for i in 0..n {
            let j = (h as usize ^ i.wrapping_mul(0x9e37_79b1)) % n;
            h = (h ^ buf[j]).wrapping_mul(0x0000_0100_0000_01b3);
            if h & 1 == 0 {
                buf[i] = h;
            } else {
                buf[j] = buf[i].wrapping_add(round);
            }
        }
    }
    let fresh = vec![h as u8; 2 << 20];
    std::hint::black_box(
        fresh
            .iter()
            .step_by(4096)
            .map(|&x| u64::from(x))
            .sum::<u64>(),
    );
    t.elapsed().as_secs_f64()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The set-up a workload pays: which safe kernel it builds and which
/// machines it loads.
fn setup_of(workload: &str) -> (KernelOptions, Vec<VmConfig>) {
    match workload {
        "smp_churn" => (KernelOptions::default(), smp::loads()),
        "fault_checkpoint" => (fault::nested(), fault::loads()),
        _ => (KernelOptions::default(), solo::loads()),
    }
}

struct RunArgs {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let w = value(i)?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|&&k| k == w)
                        .ok_or_else(|| format!("unknown workload {w}; one of {WORKLOADS:?}"))?,
                );
                i += 1;
            }
            "--seed" => {
                seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                seconds = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                i += 1;
            }
            "--trace" => {
                trace = match value(i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: want 0 or 1")),
                };
                i += 1;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run(a: RunArgs) -> ExitCode {
    let mut b = Bench {
        workload: a.workload,
        seed: a.seed,
        trace: a.trace,
        seconds: a.seconds,
        start: Instant::now(),
        attempted: 0,
        failed: 0,
        checks_ok: true,
        notes: Vec::new(),
        digest: 0xcbf2_9ce4_8422_2325,
        setup_s: Vec::new(),
        host_s: Vec::new(),
        last_host_sample: Instant::now(),
        values: Values::default(),
    };
    // The paper's detection result, once per process and outside every
    // timed region: the machine under test must still catch exactly 4 of
    // the 5 exploits.
    let rows = sva_exploits::detection_report();
    let caught = rows.iter().filter(|r| r.sva_safe.caught()).count();
    b.check(
        rows.len() == 5 && caught == 4,
        &format!("exploit detection {caught}/{} (want 4/5)", rows.len()),
    );
    b.start = Instant::now();
    match a.workload {
        "syscall_mix" => solo::syscall_mix(&mut b),
        "copy_apps" => solo::copy_apps(&mut b),
        "smp_churn" => smp::run(&mut b),
        _ => fault::run(&mut b),
    }
    unused_layers(b.workload, &mut b.values);
    let (opts, loads) = setup_of(b.workload);
    while b.setup_s.len() < MIN_SETUPS {
        b.setup_s.push(setup::cold(&opts, &loads).1);
    }
    b.values.set("setup_s", median(&b.setup_s));
    b.values.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    let raw = |b: &Bench, name| b.values.0.get(name).copied().unwrap_or(0.0);
    b.say(format!(
        "host speed: sample median {:.3} ms of {} (reference {:.3} ms); measured guest_mips {:.4}, syscalls_per_s {:.2}, setup_s {:.6}",
        median(&b.host_s) * 1e3,
        b.host_s.len(),
        HOST_REFERENCE_S * 1e3,
        raw(&b, "guest_mips"),
        raw(&b, "syscalls_per_s"),
        raw(&b, "setup_s"),
    ));
    let slowdown = median(&b.host_s) / HOST_REFERENCE_S;
    for (name, throughput) in AT_REFERENCE_SPEED {
        if let Some(x) = b.values.0.get_mut(name) {
            *x = if throughput {
                *x * slowdown
            } else {
                *x / slowdown
            };
        }
    }

    let table = if b.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for m in table {
        let value = match b.values.0.get(m.name) {
            Some(x) if x.is_finite() => *x,
            _ => {
                b.check(false, &format!("metric {} was not measured", m.name));
                0.0
            }
        };
        if m.moves.is_empty() {
            println!("{:<36} {:>18.6} {}", m.name, value, m.unit);
        } else {
            println!(
                "{:<36} {:>18.6} {:<6} -> {}",
                m.name, value, m.unit, m.moves
            );
        }
        metrics.push((
            m.name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]),
        ));
    }
    println!("{:<36} {:>18x}", "sim_digest", b.digest);
    println!(
        "{:<36} {:>18} of {} operations, {} set-ups",
        "failed",
        b.failed,
        b.attempted,
        b.setup_s.len()
    );
    for n in &b.notes {
        println!("check failed: {n}");
    }
    let result = Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(b.checks_ok && b.failed == 0 && b.attempted > 0),
        ),
        ("attempted".into(), Json::Num(b.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(b.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", json::to_string(&result));
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: svabench run --workload <{}> --seed <S> [--seconds <N>] [--trace 0|1]\n       \
         svabench compare <parent.jsonl> <change.jsonl>\n       \
         svabench ledger --out <file> --heldout <S>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(a) => run(a),
            Err(e) => {
                eprintln!("svabench: {e}");
                usage()
            }
        },
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        Some("ledger") => compare::ledger(&args[1..]),
        _ => usage(),
    }
}
