//! `svaprof`: trace and profile a kernel workload under the SVM.
//!
//! Boots the mini commodity kernel with a [`RingTracer`] attached, runs a
//! user workload (the boot-kernel example's `user_hello` by default),
//! then emits:
//!
//! - a Chrome `trace_event` JSON file (load it in `chrome://tracing` or
//!   Perfetto) next to a JSONL dump of the raw event stream, both under
//!   `target/sva-trace/` (override with `SVA_TRACE_DIR`);
//! - a "top checks / top pools / top opcodes" text report on stdout with
//!   the fraction of virtual cycles the profile attributes;
//! - with `--prom`, the counters and latency histograms in Prometheus
//!   text exposition format (`<stem>.prom` in the trace directory).
//!
//! Two snapshot modes exercise the machine checkpoint format
//! (DESIGN.md §4.6):
//!
//! - `--snapshot-out PATH` boots the kernel to the first user-mode
//!   instruction of `--prog`, writes the paused machine as a snapshot
//!   image, then resumes it and cross-checks the completed run against a
//!   fresh uninterrupted boot (`VmStats::equivalence_key` + console).
//!   Nightly CI uploads the image as the golden post-boot artifact.
//! - `--resume PATH` restores a previously written image into a fresh
//!   machine, runs it to completion, and cross-checks against a fresh
//!   boot of the same `--prog`/`--arg`. An image from a previous format
//!   version (or a compatible rebuild) is migrated through the upcaster
//!   chain ([`Vm::restore_migrated`], DESIGN.md §4.10) — the run reports
//!   the steps taken and still gates the cross-check. Exits nonzero when
//!   neither a direct restore nor migration accepts the image, or on any
//!   divergence — nightly CI runs it against the previous night's golden
//!   images to catch accidental format breaks.
//! - `--snapshot-mid PATH` boots to the first user instruction, runs
//!   `--cut N` (default 1000) further steps so the machine is genuinely
//!   mid-workload — live domain stack, in-flight syscall — writes the
//!   machine image, then proves a restored twin finishes bit-identically
//!   to the uninterrupted machine. Nightly CI uploads this as the
//!   mid-flight golden artifact alongside the post-boot one.
//!
//! One offline mode skips the boot entirely:
//!
//! - `--prom-diff OLD NEW` diffs two Prometheus text exports: counter
//!   deltas and per-bucket histogram shifts. Nightly CI runs it against
//!   the previous night's artifact to catch latency-distribution drift
//!   that leaves the medians untouched.
//!
//! Usage: `cargo run --release -p bench --bin svaprof --
//!     [--prog NAME] [--arg N] [--kind sva-safe|native|sva-gcc|sva-llvm]
//!     [--top N] [--capacity N] [--prom]
//!     [--snapshot-out PATH] [--snapshot-mid PATH [--cut N]] [--resume PATH]
//!     [--prom-diff OLD NEW] [--vcpus N]`
//!
//! Exits nonzero if the captured profile is empty — CI uses that to catch
//! a silently-detached tracer.

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{prof, run_workload_traced};
use sva_kernel::harness::{boot_user, boot_user_paused, make_vm};
use sva_trace::{
    metrics_to_prometheus, to_chrome_trace, to_jsonl, to_prometheus, top_report, RingConfig,
};
use sva_vm::{KernelKind, Vm};

/// Workload the boot-kernel example runs; the default subject here too.
const DEFAULT_PROG: &str = "user_hello";

fn trace_dir() -> PathBuf {
    if let Ok(d) = std::env::var("SVA_TRACE_DIR") {
        return PathBuf::from(d);
    }
    let mut cur = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|_| std::env::current_dir())
        .unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if cur.join("Cargo.lock").exists() {
            return cur.join("target").join("sva-trace");
        }
        if !cur.pop() {
            return PathBuf::from("target/sva-trace");
        }
    }
}

fn parse_kind(s: &str) -> Option<KernelKind> {
    KernelKind::ALL.into_iter().find(|k| k.label() == s)
}

struct Options {
    prog: String,
    arg: u64,
    kind: KernelKind,
    top: usize,
    capacity: usize,
    prom: bool,
    snapshot_out: Option<PathBuf>,
    snapshot_mid: Option<PathBuf>,
    cut: u64,
    resume: Option<PathBuf>,
    prom_diff: Option<(PathBuf, PathBuf)>,
    vcpus: Option<u32>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        prog: DEFAULT_PROG.to_string(),
        arg: 0,
        kind: KernelKind::SvaSafe,
        top: 10,
        capacity: RingConfig::default().capacity,
        prom: false,
        snapshot_out: None,
        snapshot_mid: None,
        cut: 1000,
        resume: None,
        prom_diff: None,
        vcpus: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--prog" => opts.prog = val("--prog")?,
            "--arg" => {
                opts.arg = val("--arg")?.parse().map_err(|e| format!("--arg: {e}"))?;
            }
            "--kind" => {
                let s = val("--kind")?;
                opts.kind = parse_kind(&s).ok_or(format!("unknown kind {s:?}"))?;
            }
            "--top" => {
                opts.top = val("--top")?.parse().map_err(|e| format!("--top: {e}"))?;
            }
            "--capacity" => {
                opts.capacity = val("--capacity")?
                    .parse()
                    .map_err(|e| format!("--capacity: {e}"))?;
            }
            "--prom" => opts.prom = true,
            "--snapshot-out" => {
                opts.snapshot_out = Some(PathBuf::from(val("--snapshot-out")?));
            }
            "--snapshot-mid" => {
                opts.snapshot_mid = Some(PathBuf::from(val("--snapshot-mid")?));
            }
            "--cut" => {
                opts.cut = val("--cut")?.parse().map_err(|e| format!("--cut: {e}"))?;
                if opts.cut == 0 {
                    return Err("--cut must be at least 1".to_string());
                }
            }
            "--resume" => opts.resume = Some(PathBuf::from(val("--resume")?)),
            "--prom-diff" => {
                let old = PathBuf::from(val("--prom-diff")?);
                let new = PathBuf::from(val("--prom-diff")?);
                opts.prom_diff = Some((old, new));
            }
            "--vcpus" => {
                let n: u32 = val("--vcpus")?
                    .parse()
                    .map_err(|e| format!("--vcpus: {e}"))?;
                if n == 0 {
                    return Err("--vcpus must be at least 1".to_string());
                }
                opts.vcpus = Some(n);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

/// Compares a finished (resumed) machine against a fresh uninterrupted
/// boot of the same workload: exit value, equivalence-key stats and
/// console bytes must all match byte-for-byte.
fn matches_fresh_boot(vm: &mut Vm, exit: &str, kind: KernelKind, prog: &str, arg: u64) -> bool {
    let mut fresh = make_vm(kind);
    let fresh_exit = format!("{:?}", boot_user(&mut fresh, prog, arg));
    let mut ok = true;
    if exit != fresh_exit {
        eprintln!("svaprof: exit mismatch: resumed {exit}, fresh boot {fresh_exit}");
        ok = false;
    }
    let resumed = vm.stats().equivalence_key();
    let booted = fresh.stats().equivalence_key();
    if resumed != booted {
        eprintln!("svaprof: stats mismatch:\n  resumed {resumed:?}\n  fresh   {booted:?}");
        ok = false;
    }
    if vm.console != fresh.console {
        eprintln!("svaprof: console output mismatch");
        ok = false;
    }
    ok
}

/// `--snapshot-out`: boot to the first user instruction, write the paused
/// machine image, then resume and cross-check against a fresh boot.
fn snapshot_out_mode(kind: KernelKind, prog: &str, arg: u64, path: &PathBuf) -> ExitCode {
    let mut vm = make_vm(kind);
    match boot_user_paused(&mut vm, prog, arg) {
        Ok(None) => {}
        Ok(Some(e)) => {
            eprintln!("svaprof: boot exited before reaching user mode: {e:?}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("svaprof: boot failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let image = vm.snapshot();
    if let Err(e) = std::fs::write(path, &image) {
        eprintln!("svaprof: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "svaprof: post-boot snapshot of {} {}({:#x}): {} bytes -> {}",
        kind.label(),
        prog,
        arg,
        image.len(),
        path.display()
    );
    // The paused machine must finish exactly like an uninterrupted boot,
    // or the image just written captures a corrupted pause point.
    let exit = format!("{:?}", vm.run());
    if !matches_fresh_boot(&mut vm, &exit, kind, prog, arg) {
        return ExitCode::FAILURE;
    }
    println!("svaprof: resume-after-snapshot matches an uninterrupted boot");
    ExitCode::SUCCESS
}

/// `--snapshot-mid`: boot to the first user instruction, run `cut` more
/// steps so the capture lands mid-workload, write the image, and prove a
/// restored twin finishes bit-identically to the uninterrupted machine.
fn snapshot_mid_mode(kind: KernelKind, prog: &str, arg: u64, path: &PathBuf, cut: u64) -> ExitCode {
    let mut vm = make_vm(kind);
    match boot_user_paused(&mut vm, prog, arg) {
        Ok(None) => {}
        Ok(Some(e)) => {
            eprintln!("svaprof: boot exited before reaching user mode: {e:?}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("svaprof: boot failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    match vm.run_steps(cut) {
        Ok(None) => {}
        Ok(Some(e)) => {
            eprintln!(
                "svaprof: workload finished before the {cut}-step cut ({e:?}) — pick a longer workload or a smaller --cut"
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("svaprof: workload failed before the cut: {e}");
            return ExitCode::FAILURE;
        }
    }
    let image = vm.snapshot_midflight();
    if let Err(e) = std::fs::write(path, &image) {
        eprintln!("svaprof: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "svaprof: mid-flight snapshot of {} {}({:#x}) at boot+{cut} steps: {} bytes -> {}",
        kind.label(),
        prog,
        arg,
        image.len(),
        path.display()
    );
    // The restored twin and the uninterrupted machine must finish as the
    // same machine, or the image captures a corrupted cut point.
    let mut twin = make_vm(kind);
    if let Err(e) = twin.restore(&image) {
        eprintln!("svaprof: mid-flight image does not restore: {e}");
        return ExitCode::FAILURE;
    }
    let exit = format!("{:?}", vm.run());
    let twin_exit = format!("{:?}", twin.run());
    let mut ok = true;
    if exit != twin_exit {
        eprintln!("svaprof: exit mismatch: uninterrupted {exit}, resumed twin {twin_exit}");
        ok = false;
    }
    if vm.stats().equivalence_key() != twin.stats().equivalence_key() {
        eprintln!(
            "svaprof: stats mismatch:\n  uninterrupted {:?}\n  twin          {:?}",
            vm.stats().equivalence_key(),
            twin.stats().equivalence_key()
        );
        ok = false;
    }
    if vm.console != twin.console {
        eprintln!("svaprof: console output mismatch");
        ok = false;
    }
    if !ok {
        return ExitCode::FAILURE;
    }
    println!("svaprof: mid-flight resume matches the uninterrupted run bit-for-bit");
    ExitCode::SUCCESS
}

/// `--resume`: restore an image into a fresh machine, run to completion,
/// and cross-check against a fresh boot of the same workload.
fn resume_mode(kind: KernelKind, prog: &str, arg: u64, path: &PathBuf) -> ExitCode {
    let image = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("svaprof: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut vm = make_vm(kind);
    match vm.restore(&image) {
        Ok(()) => {}
        // Not a current-format image of this exact build: route through
        // the migration chain (DESIGN.md §4.10). A previous-night golden
        // taken under an older format or a compatible rebuild must
        // restore this way — if migration also rejects it, the format
        // really broke and the run fails.
        Err(first) => match vm.restore_migrated(&image) {
            Ok(report) => println!(
                "svaprof: direct restore rejected ({first}); migrated from v{} via [{}]{}",
                report.from_version,
                report.steps.join(", "),
                if report.code_migrated {
                    ", code identity adopted"
                } else {
                    ""
                },
            ),
            Err(e) => {
                eprintln!(
                    "svaprof: cannot restore {}: {first}; migration also failed: {e}",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        },
    }
    println!(
        "svaprof: restored {} ({} bytes), resuming {} {}({:#x})",
        path.display(),
        image.len(),
        kind.label(),
        prog,
        arg
    );
    let exit = format!("{:?}", vm.run());
    if !matches_fresh_boot(&mut vm, &exit, kind, prog, arg) {
        return ExitCode::FAILURE;
    }
    println!("svaprof: resumed run matches a fresh boot bit-for-bit");
    ExitCode::SUCCESS
}

/// `--vcpus N`: run the SMP scaling corpus on an N-vCPU machine and
/// export per-vCPU metrics — every `vm.*`/`check.*`/`recovery.*`/`sched.*`
/// counter appears under `cpu<id>.` plus the machine total — to
/// `smp<N>.prom`, which the nightly `--prom-diff`s against the previous
/// night alongside the single-CPU export (DESIGN.md §4.9).
fn smp_prom_mode(vcpus: u32) -> ExitCode {
    let m = bench::smp_metrics(vcpus);
    // Every vCPU must have contributed its own check series; a missing
    // cpu<id> prefix means the per-CPU fold silently degenerated into a
    // flat machine total and the nightly diff would track nothing.
    for cpu in 0..vcpus {
        if m.counter(&format!("cpu{cpu}.check.ls_checks")) == 0 {
            eprintln!("svaprof: cpu{cpu} recorded no load/store checks — per-vCPU fold broken?");
            return ExitCode::FAILURE;
        }
    }
    let dir = trace_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("svaprof: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let prom_path = dir.join(format!("smp{vcpus}.prom"));
    if let Err(e) = std::fs::write(&prom_path, metrics_to_prometheus(&m)) {
        eprintln!("svaprof: cannot write {}: {e}", prom_path.display());
        return ExitCode::FAILURE;
    }
    println!("svaprof: {vcpus}-vCPU scaling corpus, per-CPU check/recovery counters:");
    for cpu in 0..vcpus {
        println!(
            "  cpu{cpu}: ls_checks {} bounds {} lookups s/c/p/t {}/{}/{}/{} repairs {} jobs {} steals {}",
            m.counter(&format!("cpu{cpu}.check.ls_checks")),
            m.counter(&format!("cpu{cpu}.check.bounds_checks")),
            m.counter(&format!("cpu{cpu}.check.lookup.singleton_hits")),
            m.counter(&format!("cpu{cpu}.check.lookup.cache_hits")),
            m.counter(&format!("cpu{cpu}.check.lookup.page_hits")),
            m.counter(&format!("cpu{cpu}.check.lookup.tree_walks")),
            m.counter(&format!("cpu{cpu}.recovery.repairs")),
            m.counter(&format!("cpu{cpu}.sched.jobs")),
            m.counter(&format!("cpu{cpu}.sched.steals")),
        );
    }
    println!(
        "  total: ls_checks {} bounds {} repairs {}",
        m.counter("check.ls_checks"),
        m.counter("check.bounds_checks"),
        m.counter("recovery.repairs"),
    );
    println!("prometheus:   {}", prom_path.display());
    ExitCode::SUCCESS
}

/// `--prom-diff`: counter deltas and histogram-bucket shifts between two
/// Prometheus text exports.
fn prom_diff_mode(old: &PathBuf, new: &PathBuf) -> ExitCode {
    let mut snaps = Vec::new();
    for path in [old, new] {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("svaprof: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        match prof::parse_prom(&text) {
            Ok(s) => snaps.push(s),
            Err(e) => {
                eprintln!("svaprof: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let d = prof::diff_prom(&snaps[0], &snaps[1]);
    println!(
        "svaprof: prom-diff {} -> {}: {} change(s)",
        old.display(),
        new.display(),
        d.changes
    );
    print!("{}", d.report);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("svaprof: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some((old, new)) = &opts.prom_diff {
        return prom_diff_mode(old, new);
    }
    if let Some(vcpus) = opts.vcpus {
        return smp_prom_mode(vcpus);
    }
    if let Some(path) = &opts.snapshot_out {
        return snapshot_out_mode(opts.kind, &opts.prog, opts.arg, path);
    }
    if let Some(path) = &opts.snapshot_mid {
        return snapshot_mid_mode(opts.kind, &opts.prog, opts.arg, path, opts.cut);
    }
    if let Some(path) = &opts.resume {
        return resume_mode(opts.kind, &opts.prog, opts.arg, path);
    }

    let cfg = RingConfig {
        capacity: opts.capacity,
        ..Default::default()
    };
    let (sample, tracer) = run_workload_traced(opts.kind, &opts.prog, opts.arg, cfg);

    let dir = trace_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("svaprof: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let stem = format!("{}-{}", opts.kind.label(), opts.prog);
    let chrome_path = dir.join(format!("{stem}.trace.json"));
    let jsonl_path = dir.join(format!("{stem}.jsonl"));
    for (path, contents) in [
        (&chrome_path, to_chrome_trace(&tracer)),
        (&jsonl_path, to_jsonl(&tracer)),
    ] {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("svaprof: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    println!(
        "svaprof: {} {}({:#x}) — {} instructions, {} cycles, {:?} wall",
        opts.kind.label(),
        opts.prog,
        opts.arg,
        sample.stats.instructions,
        sample.stats.cycles,
        sample.wall,
    );
    println!("chrome trace: {}", chrome_path.display());
    println!("event stream: {}", jsonl_path.display());
    println!();
    println!("{}", top_report(&tracer, sample.stats.cycles, opts.top));

    if opts.prom {
        let prom_path = dir.join(format!("{stem}.prom"));
        if let Err(e) = std::fs::write(&prom_path, to_prometheus(&tracer)) {
            eprintln!("svaprof: cannot write {}: {e}", prom_path.display());
            return ExitCode::FAILURE;
        }
        println!("prometheus:   {}", prom_path.display());
    }

    let profile = tracer.profile();
    if profile.attributed_cycles == 0 || tracer.ring().total_recorded() == 0 {
        eprintln!("svaprof: empty profile — tracer not attached?");
        return ExitCode::FAILURE;
    }

    let coverage = profile.coverage(sample.stats.cycles);
    if coverage < 0.95 {
        eprintln!(
            "svaprof: profile attributes only {:.1}% of cycles",
            100.0 * coverage
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
