//! Crash-bundle replay: rebuild the machine a bundle describes and
//! reproduce its death (DESIGN.md §4.7).
//!
//! A [`sva_vm::CrashBundle`] carries the machine's config fingerprint and
//! code identity but not the kernel image itself — images are large and
//! every consumer of this crate can rebuild them from the cached module
//! builds. Replay therefore tries each kernel flavor this harness can
//! produce, in cost order, until [`Vm::restore`] accepts the embedded
//! snapshot ([`SnapshotError::CodeMismatch`] means "wrong flavor, try the
//! next one"; any other rejection is a real error and fails the replay).
//!
//! For a [`CrashReason::Halt`] bundle the replay is **bit-exact**: the
//! snapshot was captured with the halt latched, so the restored machine
//! re-halts with the same code, the same console transcript and the same
//! `recov_last_code` resume code — [`check_reproduction`] verifies all
//! three. Fuel exhaustion reproduces the `OutOfFuel` error. Safety-escape
//! and watchdog bundles replay from post-event state (the fault-injection
//! hook that caused them is deliberately not re-armed), so for those the
//! replay is forensic, not a reproduction gate.

use sva_vm::{
    BundleError, CrashBundle, CrashReason, KernelKind, SnapshotError, Vm, VmError, VmExit,
};

use crate::build::KernelOptions;
use crate::harness::{raw_kernel, safe_kernel_module, safe_kernel_module_with};
use crate::AS_TESTED_EXCLUSIONS;

/// How a replayed machine finished.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayExit {
    /// `sva.abort(code)` halted the machine.
    Halted(u64),
    /// The resumed entry returned.
    Returned(u64),
    /// `Vm::run` returned an error (display text).
    Error(String),
}

impl std::fmt::Display for ReplayExit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayExit::Halted(c) => write!(f, "halted({c})"),
            ReplayExit::Returned(v) => write!(f, "returned({v})"),
            ReplayExit::Error(e) => write!(f, "error: {e}"),
        }
    }
}

/// The result of replaying a bundle's snapshot to completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Replay {
    /// Which kernel flavor accepted the snapshot.
    pub flavor: &'static str,
    /// How the replayed machine finished.
    pub exit: ReplayExit,
    /// Raw `recov_last_code` after the replay run.
    pub resume_code_raw: u64,
    /// Console bytes after the replay run.
    pub console: Vec<u8>,
}

/// Why a bundle could not be replayed.
#[derive(Clone, Debug)]
pub enum ReplayError {
    /// The bundle itself (or its embedded config/snapshot) was rejected.
    Bundle(BundleError),
    /// No kernel flavor this harness builds matches the bundle's code
    /// identity; carries each flavor's rejection.
    NoMatchingKernel(Vec<(&'static str, SnapshotError)>),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Bundle(e) => write!(f, "{e}"),
            ReplayError::NoMatchingKernel(tried) => {
                write!(f, "no kernel flavor matches the bundle's code identity:")?;
                for (flavor, e) in tried {
                    write!(f, " [{flavor}: {e}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Kernel flavors to try for a bundle of the given kind, cheapest-to-match
/// first (faultcamp bundles come from the recovery kernels).
fn flavors(kind: KernelKind) -> &'static [&'static str] {
    if kind.checks() {
        &["recovering", "nested", "plain"]
    } else {
        &["raw"]
    }
}

fn flavor_module(flavor: &'static str) -> sva_ir::Module {
    match flavor {
        "recovering" => safe_kernel_module_with(
            AS_TESTED_EXCLUSIONS,
            &KernelOptions {
                recovery: true,
                ..Default::default()
            },
        ),
        "nested" => safe_kernel_module_with(
            AS_TESTED_EXCLUSIONS,
            &KernelOptions {
                recovery: true,
                nested: true,
                ..Default::default()
            },
        ),
        "plain" => safe_kernel_module(AS_TESTED_EXCLUSIONS),
        _ => raw_kernel(),
    }
}

/// Migrates a crash bundle's embedded snapshot (possibly a previous
/// format) to the current one, trying each kernel flavor this harness
/// builds until one's code identity — or compatible surface (DESIGN.md
/// §4.10) — accepts it. Returns the migrated bytes, what the
/// migration did, and the accepting flavor. A bundle already at the
/// current format with a matching flavor passes through byte-identical.
pub fn migrate_bundle_any(
    bytes: &[u8],
) -> Result<(Vec<u8>, sva_vm::MigrationReport, &'static str), String> {
    let mut tried = Vec::new();
    for &flavor in &["nested", "recovering", "plain", "raw"] {
        let kind = if flavor == "raw" {
            KernelKind::Native
        } else {
            KernelKind::SvaSafe
        };
        let vm = match Vm::new(
            flavor_module(flavor),
            sva_vm::VmConfig {
                kind,
                ..Default::default()
            },
        ) {
            Ok(vm) => vm,
            Err(e) => {
                tried.push(format!("[{flavor}: vm load: {e}]"));
                continue;
            }
        };
        match sva_vm::migrate_bundle(&vm, bytes) {
            Ok((out, report)) => return Ok((out, report, flavor)),
            Err(e) => tried.push(format!("[{flavor}: {e}]")),
        }
    }
    Err(format!(
        "no kernel flavor accepts the bundle for migration: {}",
        tried.join(" ")
    ))
}

/// Replays a bundle: rebuilds the machine config from the bundle's
/// fingerprint, finds the kernel flavor whose code identity matches the
/// embedded snapshot, restores it and runs to the next exit.
pub fn replay(bundle: &CrashBundle) -> Result<Replay, ReplayError> {
    let cfg = bundle.vm_config().map_err(ReplayError::Bundle)?;
    let mut tried = Vec::new();
    for &flavor in flavors(cfg.kind) {
        let mut vm = match Vm::new(flavor_module(flavor), cfg.clone()) {
            Ok(vm) => vm,
            Err(e) => {
                tried.push((flavor, SnapshotError::Malformed(format!("vm load: {e}"))));
                continue;
            }
        };
        match vm.restore(&bundle.snapshot) {
            Ok(()) => {
                let exit = match vm.run() {
                    Ok(VmExit::Halted(c)) => ReplayExit::Halted(c),
                    Ok(VmExit::Returned(v)) => ReplayExit::Returned(v),
                    Err(e) => ReplayExit::Error(e.to_string()),
                };
                return Ok(Replay {
                    flavor,
                    exit,
                    resume_code_raw: vm.read_global_u64("recov_last_code").unwrap_or(0),
                    console: vm.console.clone(),
                });
            }
            Err(e @ SnapshotError::CodeMismatch { .. }) => tried.push((flavor, e)),
            Err(e) => return Err(ReplayError::Bundle(BundleError::Snapshot(e))),
        }
    }
    Err(ReplayError::NoMatchingKernel(tried))
}

/// Gates a replay against its bundle. For halt bundles the reproduction
/// must be bit-exact (same halt code, resume code and console); fuel
/// bundles must reproduce `OutOfFuel`; escape and watchdog bundles are
/// forensic replays and always pass.
pub fn check_reproduction(bundle: &CrashBundle, r: &Replay) -> Result<(), String> {
    match bundle.reason {
        CrashReason::Halt => {
            if r.exit != ReplayExit::Halted(bundle.halt_code) {
                return Err(format!(
                    "replay exit {} != captured halt({})",
                    r.exit, bundle.halt_code
                ));
            }
            if r.resume_code_raw != bundle.resume_code_raw {
                return Err(format!(
                    "replay resume code {:#x} != captured {:#x}",
                    r.resume_code_raw, bundle.resume_code_raw
                ));
            }
            if r.console != bundle.console {
                return Err(format!(
                    "replay console ({} bytes) != captured ({} bytes)",
                    r.console.len(),
                    bundle.console.len()
                ));
            }
            Ok(())
        }
        CrashReason::FuelExhausted => {
            let want = VmError::OutOfFuel.to_string();
            match &r.exit {
                ReplayExit::Error(e) if *e == want => Ok(()),
                other => Err(format!("replay exit {other} != fuel exhaustion")),
            }
        }
        CrashReason::SafetyEscape | CrashReason::Watchdog => Ok(()),
    }
}
