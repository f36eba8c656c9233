//! Table 7: latency of raw kernel operations, four kernel configurations.
//!
//! Paper rows: getpid, getrusage, gettimeofday, open/close, sbrk,
//! sigaction, write, pipe, fork, fork/exec.
//!
//! `--opt-compare` additionally reruns a syscall subset on the sva-safe
//! kernel at `opt_level` 0 vs 2 (DESIGN.md §4.4 superinstruction fusion)
//! and writes the cycle deltas to `target/sva-bench/table7_opt_compare.json`
//! for the nightly CI artifact.
//!
//! `--vcpus 1,2,4,8` runs the SMP scaling workload (DESIGN.md §4.9) at
//! each vCPU count and writes the syscalls/sec-vs-vCPUs curve to
//! `target/sva-bench/scaling.json`, which `bench_gate` compares against
//! the checked-in baseline.

use std::path::PathBuf;

use bench::{
    arg, latency_row, print_check_breakdown, print_latency_table, print_scaling_table,
    run_workload_cfg, run_workload_traced, scaling_curve, scaling_json, scaling_speedup,
};
use sva_trace::{top_report, RingConfig};
use sva_vm::{KernelKind, VmConfig};

fn bench_dir() -> PathBuf {
    if let Ok(d) = std::env::var("SVA_BENCH_DIR") {
        return PathBuf::from(d);
    }
    let mut cur = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|_| std::env::current_dir())
        .unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if cur.join("Cargo.lock").exists() {
            return cur.join("target").join("sva-bench");
        }
        if !cur.pop() {
            return PathBuf::from("target/sva-bench");
        }
    }
}

/// Reruns `rows` on the sva-safe kernel with fusion off (opt 0) and on
/// (opt 2), printing the per-row cycle reduction and returning the JSON
/// artifact lines. The two runs must agree on result and instruction
/// count — fusion is behavior-preserving by construction, and this doubles
/// as an end-to-end equivalence gate on the real kernel.
fn opt_compare(rows: &[(&str, &str, u64)]) -> String {
    println!("\n== sva-safe optimizing tier: opt_level 0 vs 2 (virtual cycles) ==");
    println!(
        "{:<22} {:>14} {:>14} {:>12} {:>10}",
        "Test", "cycles opt0", "cycles opt2", "fused execs", "saved %"
    );
    let mut json = String::from("[\n");
    for (i, (label, prog, a)) in rows.iter().enumerate() {
        let cfg = |opt| VmConfig {
            kind: KernelKind::SvaSafe,
            opt_level: opt,
            ..Default::default()
        };
        let r0 = run_workload_cfg(cfg(0), prog, *a);
        let r2 = run_workload_cfg(cfg(2), prog, *a);
        let (s0, s2) = (r0.stats, r2.stats);
        assert_eq!(r0.exit, r2.exit, "{label}: fusion changed the result");
        assert_eq!(
            s0.instructions, s2.instructions,
            "{label}: fusion changed the instruction count"
        );
        let saved = 100.0 * (s0.cycles - s2.cycles) as f64 / s0.cycles as f64;
        println!(
            "{:<22} {:>14} {:>14} {:>12} {:>9.2}%",
            label, s0.cycles, s2.cycles, s2.fused_execs, saved
        );
        json.push_str(&format!(
            "  {{\"test\":\"{label}\",\"cycles_opt0\":{},\"cycles_opt2\":{},\
             \"fused_execs\":{},\"saved_pct\":{saved:.3}}}{}\n",
            s0.cycles,
            s2.cycles,
            s2.fused_execs,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("]\n");
    json
}

/// Parses `--vcpus 1,2,4` / `--vcpus=1,2,4` into the counts to sweep.
fn vcpus_arg() -> Option<Vec<u32>> {
    let args: Vec<String> = std::env::args().collect();
    let list = args.iter().enumerate().find_map(|(i, a)| {
        a.strip_prefix("--vcpus=")
            .map(str::to_string)
            .or_else(|| (a == "--vcpus").then(|| args.get(i + 1).cloned()).flatten())
    })?;
    let ns: Vec<u32> = list
        .split(',')
        .map(|s| s.trim().parse().expect("--vcpus takes e.g. 1,2,4,8"))
        .collect();
    assert!(!ns.is_empty(), "--vcpus takes e.g. 1,2,4,8");
    Some(ns)
}

fn main() {
    let trace = std::env::args().any(|a| a == "--trace");
    let compare = std::env::args().any(|a| a == "--opt-compare");
    let vcpus = vcpus_arg();

    // The scaling sweep stands alone: no point re-measuring the latency
    // table once per nightly matrix arm that only wants the curve.
    if let Some(ns) = vcpus {
        let points = scaling_curve(&ns);
        print_scaling_table(&points);
        if let Some(p4) = points.iter().find(|p| p.vcpus >= 4) {
            println!(
                "speedup at {} vCPUs: {:.2}x (acceptance floor 2.5x)",
                p4.vcpus,
                scaling_speedup(&points, p4)
            );
        }
        let dir = bench_dir();
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = dir.join("scaling.json");
            match std::fs::write(&path, scaling_json(&points)) {
                Ok(()) => println!("scaling artifact: {}", path.display()),
                Err(e) => eprintln!("cannot write {}: {e}", path.display()),
            }
        }
        return;
    }
    let rows = vec![
        latency_row("getpid", "user_getpid_loop", arg(2000, 0, 0), 2000),
        latency_row("getrusage", "user_getrusage_loop", arg(2000, 0, 0), 2000),
        latency_row(
            "gettimeofday",
            "user_gettimeofday_loop",
            arg(2000, 0, 0),
            2000,
        ),
        latency_row("open/close", "user_openclose_loop", arg(500, 0, 0), 500),
        latency_row("sbrk", "user_sbrk_loop", arg(2000, 0, 0), 2000),
        latency_row("sigaction", "user_sigaction_loop", arg(2000, 0, 0), 2000),
        latency_row("write", "user_write_loop", arg(500, 64, 0), 500),
        latency_row("pipe", "user_pipe_loop", arg(300, 0, 0), 300),
        latency_row("fork", "user_fork_loop", arg(60, 0, 0), 60),
        latency_row("fork/exec", "user_forkexec_loop", arg(60, 0, 0), 60),
    ];
    print_latency_table(
        "Table 7: latency increase for raw kernel operations (% of native)",
        &rows,
    );
    println!("\npaper shape: SVA-OS dominates trivial syscalls (getpid/gettimeofday);");
    println!("run-time checks dominate compute-heavy ones (open/close, pipe, fork).");

    print_check_breakdown(
        "sva-safe lookup-layer breakdown (singleton / MRU cache / range index / splay tree)",
        &[
            ("getpid", "user_getpid_loop", arg(2000, 0, 0)),
            ("open/close", "user_openclose_loop", arg(500, 0, 0)),
            ("write", "user_write_loop", arg(500, 64, 0)),
            ("pipe", "user_pipe_loop", arg(300, 0, 0)),
            ("fork", "user_fork_loop", arg(60, 0, 0)),
        ],
    );

    if compare {
        let json = opt_compare(&[
            ("getpid", "user_getpid_loop", arg(2000, 0, 0)),
            ("open/close", "user_openclose_loop", arg(500, 0, 0)),
            ("write", "user_write_loop", arg(500, 64, 0)),
            ("pipe", "user_pipe_loop", arg(300, 0, 0)),
            ("fork", "user_fork_loop", arg(60, 0, 0)),
        ]);
        let dir = bench_dir();
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = dir.join("table7_opt_compare.json");
            match std::fs::write(&path, &json) {
                Ok(()) => println!("opt-compare artifact: {}", path.display()),
                Err(e) => eprintln!("cannot write {}: {e}", path.display()),
            }
        }
    }

    // `--trace`: re-run one representative row with a RingTracer attached
    // and print where its cycles actually went (per check, pool, SVA-OS
    // op). The table numbers above are untraced; this is the drill-down.
    if trace {
        let (sample, tracer) = run_workload_traced(
            KernelKind::SvaSafe,
            "user_getpid_loop",
            arg(2000, 0, 0),
            RingConfig::default(),
        );
        println!("\n-- traced drill-down: sva-safe getpid x2000 --");
        println!("{}", top_report(&tracer, sample.stats.cycles, 5));
    }
}
