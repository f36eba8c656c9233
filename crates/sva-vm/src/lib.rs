//! # The Secure Virtual Machine (SVM)
//!
//! Executes SVA bytecode (paper §3.4): verification, translation to a
//! signed "native" code cache, and the SVA-OS operations — interrupt
//! contexts, processor-state save/restore, MMU mediation, I/O ports and
//! system-call dispatch. Under [`KernelKind::SvaSafe`] the run-time
//! metapool checks from `sva-rt` are live and any violation stops the
//! machine with [`VmError::Safety`] instead of letting the guest kernel
//! corrupt memory — or, when the kernel has registered a recovery
//! context with `sva.recover.register`, unwinds to it with the offending
//! metapool quarantined (DESIGN.md §4.3). A [`FaultHook`] on
//! [`VmConfig`] lets deterministic fault-injection campaigns perturb the
//! machine at trap boundaries.

pub mod bundle;
pub mod mem;
pub mod migrate;
mod opt;
pub mod resume;
pub mod smp;
pub mod snapshot;
pub mod vm;

pub use bundle::{BundleError, CrashBundle, CrashReason, BUNDLE_MAGIC, BUNDLE_VERSION};
pub use mem::{
    func_addr, Memory, Mode, FUNC_BASE, KERN_BASE, KERN_END, KHEAP_BASE, KHEAP_END, KSTACK_BASE,
    KSTACK_END, PAGE_SIZE, USER_BASE, USER_END, USER_SIZE,
};
pub use migrate::{
    migrate, migrate_bundle, plan, reencode_at, MigrateError, MigrationPlan, MigrationReport,
    Upcaster, OLDEST_SUPPORTED, UPCASTERS,
};
pub use resume::{check_kind_code, ResumeCode, RESUME_KIND_WATCHDOG};
pub use smp::{
    decode_quiesce, encode_quiesce, CpuReport, JobResult, QuiesceOutcome, SmpJob, SmpMachine,
    SmpReport, QUIESCE_MAGIC, QUIESCE_VERSION,
};
pub use snapshot::{SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use sva_trace::{FlightConfig, FlightRecorder, NullTracer, RingTracer, Tracer};
pub use vm::{
    FaultAction, FaultHook, KernelKind, TrapInfo, Vm, VmConfig, VmError, VmExit, VmStats,
    CHECK_CYCLES, PORT_CONSOLE, PORT_TIMER, REG_CYCLES, USTACK_SIZE,
};

#[cfg(test)]
mod tests;
