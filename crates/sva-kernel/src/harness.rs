//! Convenience harness: build → safety-compile → verify → load → boot.
//!
//! Building and safety-compiling the kernel takes real work, so compiled
//! images are cached per exclusion list and cloned into each VM.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use sva_analysis::AnalysisConfig;
use sva_core::compile::{compile, CompileOptions};
use sva_core::verifier::verify_and_insert_checks;
use sva_ir::Module;
use sva_vm::{KernelKind, Tracer, Vm, VmConfig, VmError, VmExit, USER_BASE};

use crate::build::{build_kernel, KernelOptions};
use crate::AS_TESTED_EXCLUSIONS;

/// Start of the user brk heap (above the big I/O buffer).
pub const USER_HEAP_BASE: u64 = USER_BASE + 0x28000;

/// Re-export of the user-program argument packer.
pub use crate::build::user::pack_arg;

/// A loaded kernel image: the module plus how it was prepared.
#[derive(Clone, Debug)]
pub struct KernelImage {
    /// The (possibly instrumented) kernel module.
    pub module: Module,
    /// Exclusion prefixes used for the safety compiler (empty = raw build).
    pub exclusions: Vec<String>,
}

fn cache() -> &'static Mutex<HashMap<String, Module>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Module>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The raw (uninstrumented) kernel module, cached.
pub fn raw_kernel() -> Module {
    let mut c = cache().lock().unwrap();
    c.entry("raw".to_string())
        .or_insert_with(|| build_kernel(&KernelOptions::default()))
        .clone()
}

/// The safety-compiled, verifier-checked kernel for the given exclusion
/// list (use [`AS_TESTED_EXCLUSIONS`] for the paper's configuration).
pub fn safe_kernel_module(exclusions: &[&str]) -> Module {
    safe_kernel_module_with(exclusions, &KernelOptions::default())
}

/// Like [`safe_kernel_module`] with explicit build options (e.g. the
/// recovery boot path).
pub fn safe_kernel_module_with(exclusions: &[&str], opts: &KernelOptions) -> Module {
    let key = format!(
        "safe:{}:{}:{}",
        match (opts.nested, opts.recovery) {
            (true, _) => "nested",
            (false, true) => "recov",
            (false, false) => "plain",
        },
        opts.patch_salt,
        exclusions.join(","),
    );
    let mut c = cache().lock().unwrap();
    c.entry(key)
        .or_insert_with(|| {
            let m = build_kernel(opts);
            let cfg = AnalysisConfig::kernel_excluding(exclusions);
            let compiled = compile(m, &cfg, &CompileOptions::default());
            let verified = verify_and_insert_checks(compiled.module)
                .expect("kernel fails metapool verification");
            verified.module
        })
        .clone()
}

/// Builds a VM running the kernel under the given configuration; the
/// `SvaSafe` configuration uses the paper's "as tested" exclusions.
pub fn make_vm(kind: KernelKind) -> Vm {
    make_vm_with(kind, AS_TESTED_EXCLUSIONS)
}

/// Like [`make_vm`] with explicit safety-compiler exclusions.
pub fn make_vm_with(kind: KernelKind, exclusions: &[&str]) -> Vm {
    let module = if kind.checks() {
        safe_kernel_module(exclusions)
    } else {
        raw_kernel()
    };
    Vm::new(
        module,
        VmConfig {
            kind,
            ..Default::default()
        },
    )
    .expect("kernel loads")
}

/// Like [`make_vm`] with a full [`VmConfig`] — opt level, lookup switch,
/// vCPUs. The kernel image is chosen by `cfg.kind` with the paper's "as
/// tested" exclusions.
pub fn make_vm_cfg(cfg: VmConfig) -> Vm {
    let module = if cfg.kind.checks() {
        safe_kernel_module(AS_TESTED_EXCLUSIONS)
    } else {
        raw_kernel()
    };
    Vm::new(module, cfg).expect("kernel loads")
}

/// Like [`make_vm`] with an attached tracer (e.g. `RingTracer`). Uses the
/// paper's "as tested" exclusions, same as [`make_vm`].
pub fn make_vm_traced<T: Tracer>(kind: KernelKind, tracer: T) -> Vm<T> {
    let module = if kind.checks() {
        safe_kernel_module(AS_TESTED_EXCLUSIONS)
    } else {
        raw_kernel()
    };
    Vm::with_tracer(
        module,
        VmConfig {
            kind,
            ..Default::default()
        },
        tracer,
    )
    .expect("kernel loads")
}

/// Builds a safety-checked VM whose kernel registers a violation-recovery
/// domain at boot (DESIGN.md §4.3), under the given VM configuration.
/// `cfg.kind` is forced to `SvaSafe` — recovery is only meaningful with
/// checks live.
pub fn make_vm_recovering(mut cfg: VmConfig) -> Vm {
    cfg.kind = KernelKind::SvaSafe;
    let module = safe_kernel_module_with(
        AS_TESTED_EXCLUSIONS,
        &KernelOptions {
            recovery: true,
            ..Default::default()
        },
    );
    Vm::new(module, cfg).expect("kernel loads")
}

/// Like [`make_vm_recovering`] with an attached tracer.
pub fn make_vm_recovering_traced<T: Tracer>(mut cfg: VmConfig, tracer: T) -> Vm<T> {
    cfg.kind = KernelKind::SvaSafe;
    let module = safe_kernel_module_with(
        AS_TESTED_EXCLUSIONS,
        &KernelOptions {
            recovery: true,
            ..Default::default()
        },
    );
    Vm::with_tracer(module, cfg, tracer).expect("kernel loads")
}

/// Builds a safety-checked VM whose kernel runs every syscall and the IRQ
/// dispatch path inside its own nested recovery domain, on top of the
/// boot domain (DESIGN.md §4.5). `cfg.kind` is forced to `SvaSafe`.
pub fn make_vm_nested(mut cfg: VmConfig) -> Vm {
    cfg.kind = KernelKind::SvaSafe;
    let module = safe_kernel_module_with(
        AS_TESTED_EXCLUSIONS,
        &KernelOptions {
            recovery: true,
            nested: true,
            ..Default::default()
        },
    );
    Vm::new(module, cfg).expect("kernel loads")
}

/// Like [`make_vm_nested`] but modelling a *compatible rebuild*: the
/// kernel gains one never-called pad function appended at module end
/// (`KernelOptions::patch_salt`), so the machine has a different code
/// identity with an identical surface prefix — the build the snapshot
/// migration code-adoption policy (DESIGN.md §4.10) is meant to accept.
pub fn make_vm_nested_patched(mut cfg: VmConfig, salt: u64) -> Vm {
    cfg.kind = KernelKind::SvaSafe;
    let module = safe_kernel_module_with(
        AS_TESTED_EXCLUSIONS,
        &KernelOptions {
            recovery: true,
            nested: true,
            patch_salt: salt,
        },
    );
    Vm::new(module, cfg).expect("kernel loads")
}

/// Like [`make_vm_nested`] with an attached tracer.
pub fn make_vm_nested_traced<T: Tracer>(mut cfg: VmConfig, tracer: T) -> Vm<T> {
    cfg.kind = KernelKind::SvaSafe;
    let module = safe_kernel_module_with(
        AS_TESTED_EXCLUSIONS,
        &KernelOptions {
            recovery: true,
            nested: true,
            ..Default::default()
        },
    );
    Vm::with_tracer(module, cfg, tracer).expect("kernel loads")
}

/// Boots the kernel with `prog(arg)` as the init user program.
pub fn boot_user<T: Tracer>(vm: &mut Vm<T>, prog: &str, arg: u64) -> Result<VmExit, VmError> {
    let addr = vm
        .func_address(prog)
        .ok_or_else(|| VmError::Unsupported(format!("no user program @{prog}")))?;
    vm.write_global_u64("boot_user_prog", addr)?;
    vm.write_global_u64("boot_user_arg", arg)?;
    vm.boot()
}

/// Like [`boot_user`] but pauses the machine at the first user-mode
/// instruction — the post-boot point machine snapshots are taken at.
/// Returns `Ok(None)` when paused (resume with [`Vm::run`]); `Ok(Some)`
/// if the boot exited before ever entering user mode.
pub fn boot_user_paused<T: Tracer>(
    vm: &mut Vm<T>,
    prog: &str,
    arg: u64,
) -> Result<Option<VmExit>, VmError> {
    let addr = vm
        .func_address(prog)
        .ok_or_else(|| VmError::Unsupported(format!("no user program @{prog}")))?;
    vm.write_global_u64("boot_user_prog", addr)?;
    vm.write_global_u64("boot_user_arg", arg)?;
    vm.boot_to_user()
}
