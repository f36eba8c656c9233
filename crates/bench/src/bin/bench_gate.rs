//! `bench_gate`: the nightly perf-regression gate for `checks_micro`.
//!
//! Compares the JSON-lines output of the latest `cargo bench -p bench
//! --bench checks_micro` run (`target/sva-bench/checks_micro.json`)
//! against the checked-in baseline (`crates/bench/baselines/
//! checks_micro.json`) and exits nonzero if any *gated* benchmark's median
//! regressed by more than the threshold (default 15%).
//!
//! Only the repeat-hit latencies are gated — they are the steady-state
//! cost of a run-time check (the number Table 7's overheads are built
//! from) and they are measured with enough iterations to be stable on a
//! shared CI runner. Every other id found in both files is reported for
//! context but cannot fail the gate.
//!
//! A second, *paired* gate compares ids within the current run alone:
//! the flight recorder's repeat-hit site must price within 5% of the
//! NullTracer site measured seconds earlier on the same machine, so the
//! machine-speed variable cancels and the threshold can be tight.
//!
//! A third gate covers the SMP scaling curve (DESIGN.md §4.9): when
//! `target/sva-bench/scaling.json` (written by `table7_syscalls
//! --vcpus ...`) is present it is checked in host time and in virtual
//! time. The host gate: at every point with 2 ≤ vCPUs ≤ the host's
//! available parallelism, host syscalls per second — `total_syscalls`
//! over the fastest of at least 5 repetitions' `wall_ms` — may not fall
//! below the 1-vCPU point's. The virtual-time checks, which test
//! determinism rather than speed: the merged cycles-per-syscall may not
//! regress past the threshold against `crates/bench/baselines/
//! scaling.json` at any common vCPU count, and the virtual-makespan
//! speedup at ≥4 vCPUs may not fall below the 2.5× acceptance floor.
//! Without a current scaling run the gate is skipped unless
//! `--require-scaling` is given (the nightly passes it).
//!
//! Usage: `cargo run --release -p bench --bin bench_gate --
//!     [--baseline PATH] [--current PATH] [--threshold PCT]
//!     [--scaling-baseline PATH] [--scaling-current PATH] [--require-scaling]`
//!
//! The criterion shim *appends* to its JSON file, so when an id appears
//! more than once the last line (the most recent run) wins.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Benchmark ids allowed to fail the gate: the repeat-hit medians.
const GATED: [&str; 3] = [
    "rt/fastpath/repeat_fast",
    "rt/singleton/repeat_singleton",
    "rt/singleton/repeat_mru",
];

/// Same-run paired gates: `(id, reference, max % over reference)`. The
/// always-on flight recorder (DESIGN.md §4.7) may cost at most 5% over
/// the NullTracer on the identical repeat-hit check site.
const PAIRED: [(&str, &str, f64); 1] = [("rt/flight/repeat_flight", "rt/flight/repeat_null", 5.0)];

/// Pulls `"key":value` (a bare JSON number or string) out of a flat JSON
/// object line. Hand-rolled on purpose: the workspace has no JSON
/// dependency and the shim's output is machine-generated and flat.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    let end = rest.find(['"', ',', '}'])?;
    Some(&rest[..end])
}

/// Parses a shim JSON-lines file into `id → ns_median`, last line wins.
fn parse_medians(path: &PathBuf) -> Result<HashMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = HashMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let id = field(line, "id").ok_or_else(|| format!("no id in line: {line}"))?;
        let median: f64 = field(line, "ns_median")
            .ok_or_else(|| format!("no ns_median in line: {line}"))?
            .parse()
            .map_err(|e| format!("bad ns_median in line: {line}: {e}"))?;
        out.insert(id.to_string(), median);
    }
    Ok(out)
}

fn workspace_root() -> PathBuf {
    let mut cur = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|_| std::env::current_dir())
        .unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if cur.join("Cargo.lock").exists() {
            return cur;
        }
        if !cur.pop() {
            return PathBuf::from(".");
        }
    }
}

struct Options {
    baseline: PathBuf,
    current: PathBuf,
    threshold: f64,
    scaling_baseline: PathBuf,
    scaling_current: PathBuf,
    require_scaling: bool,
}

fn parse_args() -> Result<Options, String> {
    let root = workspace_root();
    let mut opts = Options {
        baseline: root.join("crates/bench/baselines/checks_micro.json"),
        current: root.join("target/sva-bench/checks_micro.json"),
        threshold: 15.0,
        scaling_baseline: root.join("crates/bench/baselines/scaling.json"),
        scaling_current: root.join("target/sva-bench/scaling.json"),
        require_scaling: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--baseline" => opts.baseline = PathBuf::from(val("--baseline")?),
            "--current" => opts.current = PathBuf::from(val("--current")?),
            "--threshold" => {
                opts.threshold = val("--threshold")?
                    .parse()
                    .map_err(|e| format!("--threshold: {e}"))?;
            }
            "--scaling-baseline" => {
                opts.scaling_baseline = PathBuf::from(val("--scaling-baseline")?)
            }
            "--scaling-current" => opts.scaling_current = PathBuf::from(val("--scaling-current")?),
            "--require-scaling" => opts.require_scaling = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

/// One parsed line of a `scaling.json` artifact.
struct ScalingLine {
    vcpus: u32,
    total_syscalls: f64,
    cycles_per_syscall: f64,
    speedup_vs_1: f64,
    /// Fastest host wall time over `reps` repetitions.
    wall_ms: f64,
    /// Repetitions (1 in artifacts that predate the field).
    reps: u32,
}

impl ScalingLine {
    fn host_syscalls_per_s(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.total_syscalls / (self.wall_ms / 1e3)
        } else {
            0.0
        }
    }
}

/// Parses the line-oriented `scaling.json` array into its points.
fn parse_scaling(path: &PathBuf) -> Result<Vec<ScalingLine>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.lines().filter(|l| l.contains("\"vcpus\":")) {
        let num = |key: &str| -> Result<f64, String> {
            field(line, key)
                .ok_or_else(|| format!("no {key} in line: {line}"))?
                .parse()
                .map_err(|e| format!("bad {key} in line: {line}: {e}"))
        };
        out.push(ScalingLine {
            vcpus: num("vcpus")? as u32,
            total_syscalls: num("total_syscalls")?,
            cycles_per_syscall: num("cycles_per_syscall")?,
            speedup_vs_1: num("speedup_vs_1")?,
            wall_ms: num("wall_ms")?,
            reps: if field(line, "reps").is_some() {
                num("reps")? as u32
            } else {
                1
            },
        });
    }
    if out.is_empty() {
        return Err(format!("{}: no scaling points", path.display()));
    }
    Ok(out)
}

/// Minimum speedup the ≥4-vCPU point must clear (the acceptance floor
/// for the SMP machine's virtual makespan).
const SCALING_SPEEDUP_FLOOR: f64 = 2.5;

/// Repetitions a point's wall time must be the fastest of before the host
/// gate trusts it.
const HOST_MIN_REPS: u32 = 5;

/// The host-time gate: every point the host can run in parallel (2 ≤
/// vCPUs ≤ available parallelism) must serve at least as many syscalls
/// per host second as the 1-vCPU point. Returns whether anything failed.
fn gate_host_scaling(cur: &[ScalingLine]) -> bool {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
    let gated: Vec<&ScalingLine> = cur
        .iter()
        .filter(|c| (2..=cores).contains(&c.vcpus))
        .collect();
    if gated.is_empty() {
        println!("scaling host: no point with 2..={cores} vCPUs, host gate not checked");
        return false;
    }
    let Some(one) = cur.iter().find(|c| c.vcpus == 1) else {
        println!("scaling host: no 1-vCPU point to compare against  FAIL");
        return true;
    };
    let mut failed = false;
    let base = one.host_syscalls_per_s();
    println!(
        "{:<34} {:>12} {:>12} {:>9}  gate",
        "scaling (host syscalls/s)", "1 vCPU", "now", "ratio"
    );
    for c in std::iter::once(one).chain(gated.iter().copied()) {
        if c.reps < HOST_MIN_REPS {
            failed = true;
            println!(
                "scaling/{}vcpu wall is the fastest of {} reps, need {HOST_MIN_REPS}  FAIL",
                c.vcpus, c.reps
            );
        }
    }
    for c in gated {
        let now = c.host_syscalls_per_s();
        let ratio = if base > 0.0 { now / base } else { 0.0 };
        let verdict = if ratio < 1.0 {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "{:<34} {base:>12.0} {now:>12.0} {ratio:>8.2}x  {verdict} (floor 1.00x, {cores} cores)",
            format!("scaling/{}vcpu host", c.vcpus)
        );
    }
    failed
}

/// Gates the scaling curve. Returns whether anything failed.
fn gate_scaling(opts: &Options) -> bool {
    if !opts.scaling_current.exists() {
        if opts.require_scaling {
            eprintln!(
                "bench_gate: --require-scaling but no current run at {} (run table7_syscalls --vcpus ...)",
                opts.scaling_current.display()
            );
            return true;
        }
        println!("scaling: no current run, skipped");
        return false;
    }
    let (base, cur) = match (
        parse_scaling(&opts.scaling_baseline),
        parse_scaling(&opts.scaling_current),
    ) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_gate: scaling: {e}");
            return true;
        }
    };
    let mut failed = gate_host_scaling(&cur);
    println!(
        "{:<34} {:>12} {:>12} {:>9}  gate",
        "scaling (cycles/syscall)", "base", "now", "delta"
    );
    for c in &cur {
        let Some(b) = base.iter().find(|b| b.vcpus == c.vcpus) else {
            println!("scaling/{}vcpu: no baseline point, info only", c.vcpus);
            continue;
        };
        let delta = if b.cycles_per_syscall == 0.0 {
            0.0
        } else {
            100.0 * (c.cycles_per_syscall - b.cycles_per_syscall) / b.cycles_per_syscall
        };
        let verdict = if delta > opts.threshold {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        let id = format!("scaling/{}vcpu", c.vcpus);
        println!(
            "{id:<34} {:>12.1} {:>12.1} {delta:>+8.1}%  {verdict}",
            b.cycles_per_syscall, c.cycles_per_syscall
        );
    }
    match cur.iter().find(|c| c.vcpus >= 4) {
        Some(c) if c.speedup_vs_1 < SCALING_SPEEDUP_FLOOR => {
            failed = true;
            println!(
                "scaling/{}vcpu speedup {:.2}x < {SCALING_SPEEDUP_FLOOR:.1}x floor  FAIL",
                c.vcpus, c.speedup_vs_1
            );
        }
        Some(c) => println!(
            "scaling/{}vcpu speedup {:.2}x (floor {SCALING_SPEEDUP_FLOOR:.1}x)  ok",
            c.vcpus, c.speedup_vs_1
        ),
        None => println!("scaling: no >=4-vCPU point in current run, speedup floor not checked"),
    }
    failed
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (base, cur) = match (parse_medians(&opts.baseline), parse_medians(&opts.current)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut ids: Vec<&String> = base.keys().filter(|id| cur.contains_key(*id)).collect();
    ids.sort();
    if ids.is_empty() {
        eprintln!("bench_gate: no benchmark ids in common between baseline and current");
        return ExitCode::FAILURE;
    }

    println!(
        "{:<34} {:>12} {:>12} {:>9}  gate",
        "benchmark", "base (ns)", "now (ns)", "delta"
    );
    let mut failed = false;
    for id in ids {
        let (b, c) = (base[id], cur[id]);
        let delta = if b == 0.0 { 0.0 } else { 100.0 * (c - b) / b };
        let gated = GATED.contains(&id.as_str());
        let verdict = if !gated {
            "info"
        } else if delta > opts.threshold {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        println!("{id:<34} {b:>12.1} {c:>12.1} {delta:>+8.1}%  {verdict}");
    }
    for id in GATED {
        if !base.contains_key(id) || !cur.contains_key(id) {
            eprintln!("bench_gate: gated id {id:?} missing from baseline or current run");
            failed = true;
        }
    }
    for (id, reference, pct) in PAIRED {
        match (cur.get(id), cur.get(reference)) {
            (Some(&c), Some(&r)) if r > 0.0 => {
                let delta = 100.0 * (c - r) / r;
                let verdict = if delta > pct {
                    failed = true;
                    "FAIL"
                } else {
                    "ok"
                };
                println!(
                    "{id:<34} {r:>12.1} {c:>12.1} {delta:>+8.1}%  {verdict} (paired, limit +{pct:.0}%)"
                );
            }
            _ => {
                eprintln!("bench_gate: paired ids {id:?} / {reference:?} missing from current run");
                failed = true;
            }
        }
    }
    if gate_scaling(&opts) {
        failed = true;
    }
    if failed {
        eprintln!(
            "bench_gate: a gated metric regressed more than {:.0}% (or a gated id vanished)",
            opts.threshold
        );
        return ExitCode::FAILURE;
    }
    println!(
        "bench_gate: all gated medians within {:.0}% of baseline",
        opts.threshold
    );
    ExitCode::SUCCESS
}
