//! `svadbg` — the crash-bundle postmortem inspector (DESIGN.md §4.7).
//!
//! ```text
//! svadbg <bundle>            print a human postmortem of the crash
//! svadbg --replay <bundle>   also restore the embedded snapshot and
//!                            reproduce the death, gating bit-exactness
//! svadbg --migrate <file>    print the migration plan (the upcaster
//!                            chain) for a bundle or snapshot, and for
//!                            bundles migrate the embedded snapshot so
//!                            the postmortem/--replay run on builds that
//!                            postdate the capture (DESIGN.md §4.10)
//! ```
//!
//! The postmortem is everything the machine knew when it died: the crash
//! reason and detail, the decoded resume code, the machine configuration
//! and code identity, execution statistics, the recovery-domain stack,
//! the metapool dump, the degraded-syscall health table, the
//! flight-recorder tail and the console transcript.
//!
//! With `--replay` the bundle's snapshot is restored into a freshly
//! built kernel of the matching flavor and run to its next exit; for a
//! halt bundle the replay must reproduce the same halt code, resume code
//! and console byte-for-byte ([`sva_kernel::check_reproduction`]). Exit
//! status: 0 on success, 1 on a load/parse error, 2 on usage error, 3
//! when a replay diverges from the captured death.

use std::process::ExitCode;

use sva_kernel::postmortem::{check_reproduction, migrate_bundle_any, replay};
use sva_kernel::{health_state, health_state_name, health_strikes, subsys_name};
use sva_vm::{CrashBundle, ResumeCode, VmStats};

/// Prints the upcaster chain an artifact would take to reach the
/// current format (`svadbg --migrate`).
fn print_plan(plan: &sva_vm::MigrationPlan) {
    println!("== migration plan ==");
    println!("container:   {}", plan.kind);
    println!(
        "format:      v{} -> v{}{}",
        plan.version,
        plan.target,
        if plan.version == plan.target {
            "  (already current)"
        } else {
            ""
        }
    );
    println!("code id:     {:#018x}", plan.code_id);
    if plan.steps.is_empty() {
        println!("steps:       none");
    } else {
        for s in &plan.steps {
            println!("  {:7} {}", s.name, s.summary);
        }
    }
}

fn human_console(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn print_postmortem(bundle: &CrashBundle) {
    println!("== SVA crash bundle ==");
    println!("reason:      {}", bundle.reason);
    println!("vcpu:        {}", bundle.cpu);
    if bundle.halt_code != 0 {
        println!("halt code:   {}", bundle.halt_code);
    }
    if !bundle.detail.is_empty() {
        println!("detail:      {}", bundle.detail);
    }
    match bundle.resume_code() {
        Some(rc) => println!("resume code: {rc}  (raw {:#x})", bundle.resume_code_raw),
        None => println!("resume code: none recorded"),
    }
    println!("code id:     {:#018x}", bundle.code_id);
    match bundle.vm_config() {
        Ok(cfg) => println!(
            "config:      {:?} opt={} fast_path={} budget={} domain_fuel={} vcpus={}",
            cfg.kind,
            cfg.opt_level,
            cfg.fast_path,
            cfg.violation_budget,
            cfg.domain_fuel,
            cfg.vcpus,
        ),
        Err(e) => println!("config:      unreplayable ({e})"),
    }

    println!("-- stats");
    for (name, v) in VmStats::NAMES.iter().zip(bundle.stats.to_words()) {
        println!("  {name:<30} {v}");
    }

    println!(
        "-- recovery domains ({}, innermost last)",
        bundle.domains.len()
    );
    for (i, d) in bundle.domains.iter().enumerate() {
        println!(
            "  [{}] subsys {} fuel {} quarantined {:?}",
            i, d.subsys, d.fuel, d.quarantined_pools
        );
    }

    let hot: Vec<_> = bundle
        .pools
        .iter()
        .filter(|p| p.violations > 0 || p.quarantined || p.poisoned)
        .collect();
    println!(
        "-- metapools ({} total, {} with violations/quarantine)",
        bundle.pools.len(),
        hot.len()
    );
    for p in &hot {
        println!(
            "  #{} {:24} {} live {:5} checks {:8} violations {:3}{}{}{}",
            p.id,
            p.name,
            if p.complete {
                "complete  "
            } else {
                "incomplete"
            },
            p.live_objects,
            p.checks,
            p.violations,
            if p.quarantined { " QUARANTINED" } else { "" },
            if p.poisoned { " POISONED" } else { "" },
            if p.repairs > 0 {
                format!(" repaired x{}", p.repairs)
            } else {
                String::new()
            },
        );
    }

    println!("-- subsystem health ({} not live)", bundle.health.len());
    for &(i, w) in &bundle.health {
        let subsys = i as i64 + 1;
        println!(
            "  [{subsys}] {:18} {:9} strikes {}  (raw {w:#x})",
            subsys_name(subsys),
            health_state_name(health_state(w)),
            health_strikes(w),
        );
    }

    println!("-- flight recorder tail ({} events)", bundle.flight.len());
    for e in &bundle.flight {
        println!("  {}", e.to_json());
    }

    println!("-- console ({} bytes)", bundle.console.len());
    for line in human_console(&bundle.console).lines() {
        println!("  | {line}");
    }
}

fn main() -> ExitCode {
    let mut do_replay = false;
    let mut do_migrate = false;
    let mut path = None;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--replay" => do_replay = true,
            "--migrate" => do_migrate = true,
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("svadbg: unexpected argument {other}");
                eprintln!("usage: svadbg [--replay] [--migrate] <bundle-or-snapshot>");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: svadbg [--replay] [--migrate] <bundle-or-snapshot>");
        return ExitCode::from(2);
    };

    let mut bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("svadbg: cannot read {path}: {e}");
            return ExitCode::from(1);
        }
    };
    if do_migrate {
        let plan = match sva_vm::plan(&bytes) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("svadbg: {path}: {e}");
                return ExitCode::from(1);
            }
        };
        print_plan(&plan);
        if plan.kind != "bundle" {
            // A bare snapshot has no postmortem to print — the plan is
            // the product (restore it with `svaprof --resume`).
            return ExitCode::SUCCESS;
        }
        match migrate_bundle_any(&bytes) {
            Ok((out, report, flavor)) => {
                println!(
                    "migrated:    snapshot from v{} via [{}]{} (flavor {flavor})",
                    report.from_version,
                    report.steps.join(", "),
                    if report.code_migrated {
                        ", code identity adopted"
                    } else {
                        ""
                    },
                );
                bytes = out;
            }
            Err(e) => {
                eprintln!("svadbg: migrate: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let bundle = match CrashBundle::from_bytes(&bytes) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("svadbg: {path}: {e}");
            return ExitCode::from(1);
        }
    };

    print_postmortem(&bundle);

    if do_replay {
        println!("-- replay");
        match replay(&bundle) {
            Ok(r) => {
                println!("kernel flavor: {}", r.flavor);
                println!("exit:          {}", r.exit);
                match ResumeCode::decode(r.resume_code_raw) {
                    Some(rc) => println!("resume code:   {rc}"),
                    None => println!("resume code:   none recorded"),
                }
                match check_reproduction(&bundle, &r) {
                    Ok(()) => println!("reproduction:  exact"),
                    Err(e) => {
                        eprintln!("svadbg: REPLAY DIVERGED: {e}");
                        return ExitCode::from(3);
                    }
                }
            }
            Err(e) => {
                eprintln!("svadbg: replay failed: {e}");
                return ExitCode::from(3);
            }
        }
    }
    ExitCode::SUCCESS
}
