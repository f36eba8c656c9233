//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. static bounds-check elision (paper §7.1.3 optimization 3) — check
//!    counts and cycle cost with and without it;
//! 2. the §4.8 analysis transforms (function cloning, devirtualization) —
//!    metapool precision with and without them;
//! 3. the §6.2 `kmalloc`-backing exposure — metapool merging with and
//!    without the `backed_by` declaration;
//! 4. the lookup fast path (the singleton test, the MRU cache and a sorted
//!    range index instead of the splay tree) — wall time and lookup-layer
//!    breakdown with and without it. Virtual cycles are identical by
//!    construction: the fast path changes how a lookup is answered, not
//!    what it costs in the machine model.

use bench::run_workload_traced;
use sva_analysis::AnalysisConfig;
use sva_core::compile::{compile, CompileOptions};
use sva_core::verifier::{verify_and_insert_checks_with, InsertOptions};
use sva_kernel::harness::{boot_user, pack_arg, raw_kernel};
use sva_kernel::AS_TESTED_EXCLUSIONS;
use sva_trace::{top_report, RingConfig};
use sva_vm::{KernelKind, Vm, VmConfig};

fn run_cycles(module: sva_ir::Module, prog: &str, arg: u64) -> (u64, u64) {
    let mut vm = Vm::new(
        module,
        VmConfig {
            kind: KernelKind::SvaSafe,
            ..Default::default()
        },
    )
    .expect("load");
    boot_user(&mut vm, prog, arg).expect("boot");
    (vm.stats().cycles, vm.pools.total_stats().total_checks())
}

fn main() {
    let cfg = AnalysisConfig::kernel_excluding(AS_TESTED_EXCLUSIONS);

    println!("== Ablation 1: static bounds-check elision (§7.1.3 opt 3) ==");
    for (label, elide) in [("with elision (default)", true), ("without elision", false)] {
        let m = raw_kernel();
        let compiled = compile(m, &cfg, &CompileOptions::default());
        let v = verify_and_insert_checks_with(
            compiled.module,
            InsertOptions {
                elide_static_safe: elide,
                ..Default::default()
            },
        )
        .expect("verifies");
        let inserted = v.report.bounds_checks;
        let known = v.report.bounds_known_range;
        let elided = v.report.bounds_static_safe;
        let (cycles, checks) = run_cycles(v.module, "user_pipe_loop", pack_arg(100, 0, 0));
        println!(
            "  {label:<26} {inserted:>5} splay checks + {known} known-bounds, {elided:>4} elided; \
             pipe workload: {checks} dynamic checks, {cycles} cycles"
        );
    }

    println!("\n== Ablation 2: §4.8 transforms (cloning + devirtualization) ==");
    for (label, on) in [("baseline", false), ("with transforms", true)] {
        let m = raw_kernel();
        let opts = CompileOptions {
            clone_functions: on,
            devirtualize: on,
            ..CompileOptions::default()
        };
        let compiled = compile(m, &cfg, &opts);
        println!(
            "  {label:<26} {} metapools ({} TH, {} complete); {} clones, {} devirtualized",
            compiled.report.metapools,
            compiled.report.th_metapools,
            compiled.report.complete_metapools,
            compiled.report.clones,
            compiled.report.devirtualized,
        );
    }

    println!("\n== Ablation 3: kmalloc size-class exposure (§6.2 backed_by) ==");
    for (label, backed) in [("exposed (default)", true), ("merged", false)] {
        let mut m = raw_kernel();
        if !backed {
            for a in &mut m.allocators {
                if a.name == "kmalloc" {
                    a.backed_by = None;
                }
            }
        }
        let compiled = compile(m, &cfg, &CompileOptions::default());
        // Does the constant-size pipe-ring allocation share a metapool with
        // the dynamic msfilter allocation?
        let ring_site = compiled
            .analysis
            .alloc_sites
            .iter()
            .find(|s| compiled.module.func(s.func).name == "pipe_create")
            .expect("pipe ring site");
        let filter_site = compiled
            .analysis
            .alloc_sites
            .iter()
            .find(|s| compiled.module.func(s.func).name == "net_set_msfilter")
            .expect("filter site");
        let a = compiled.analysis.graph.find_ro(ring_site.node);
        let b = compiled.analysis.graph.find_ro(filter_site.node);
        println!(
            "  {label:<26} {} metapools; pipe ring & msfilter share a pool: {}",
            compiled.report.metapools,
            a == b
        );
    }

    println!("\n== Ablation 4: lookup fast path (singleton test + MRU + range index) ==");
    for (label, fast) in [
        ("fast path (default)", true),
        ("splay-only baseline", false),
    ] {
        let m = raw_kernel();
        let compiled = compile(m, &cfg, &CompileOptions::default());
        let v = verify_and_insert_checks_with(compiled.module, InsertOptions::default())
            .expect("verifies");
        let mut vm = Vm::new(
            v.module,
            VmConfig {
                kind: KernelKind::SvaSafe,
                fast_path: fast,
                ..Default::default()
            },
        )
        .expect("load");
        let start = std::time::Instant::now();
        boot_user(&mut vm, "user_pipe_loop", pack_arg(100, 0, 0)).expect("boot");
        let wall = start.elapsed();
        let s = vm.stats();
        let lookups = s.singleton_hits + s.cache_hits + s.page_hits + s.tree_walks;
        println!(
            "  {label:<26} {lookups} lookups (singleton {} / cache {} / page {} / tree {}), \
             {} cycles, {:.2?} wall",
            s.singleton_hits, s.cache_hits, s.page_hits, s.tree_walks, s.cycles, wall
        );
    }

    // `--trace`: per-pool view of ablation 4's aggregate layer counts —
    // which metapools the checks hammer and which layer answers each one.
    if std::env::args().any(|a| a == "--trace") {
        let (sample, tracer) = run_workload_traced(
            KernelKind::SvaSafe,
            "user_pipe_loop",
            pack_arg(100, 0, 0),
            RingConfig::default(),
        );
        println!("\n-- traced drill-down: sva-safe pipe x100, per-pool layers --");
        println!("{}", top_report(&tracer, sample.stats.cycles, 5));
    }
}
