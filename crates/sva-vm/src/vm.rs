//! The Secure Virtual Machine.
//!
//! The SVM implements SVA "by performing bytecode verification,
//! translation, native code caching and authentication, and implementing
//! the SVA-OS instructions" (paper §3.4). This implementation:
//!
//! * loads a module, lays out globals in kernel memory and patches
//!   relocations;
//! * **translates** bytecode to a pre-resolved flat instruction stream
//!   (the "native code cache");
//! * executes either the flat code or the tree-walking interpreter — the
//!   two code generators behind the paper's GCC/LLVM comparison columns;
//! * implements every SVA-OS operation: interrupt contexts, integer/FP
//!   state save/restore, MMU mediation, I/O, syscall dispatch;
//! * when safety enforcement is on, runs the metapool checks from `sva-rt`
//!   and refuses to run modules that did not pass the bytecode verifier.

use std::collections::HashMap;
use std::sync::Arc;

use sva_ir::{
    AtomicOp, BinOp, Callee, CastOp, GlobalInit, IPred, Inst, Intrinsic, Module, Operand,
    PoolAnnotations, RelocTarget, Type, TypeId,
};
use sva_rt::{CheckError, MetaPool, MetaPoolTable};
use sva_trace::{EventClass, LookupLayer, NullTracer, TraceEvent, Tracer};

use crate::mem::{
    addr_func, extern_addr, func_addr, Memory, Mode, KSTACK_BASE, KSTACK_END, PAGE_SIZE, USER_BASE,
    USER_END, USER_SIZE,
};
use crate::resume::{check_kind_code, ResumeCode, RESUME_KIND_WATCHDOG};

/// Errors that abort VM execution.
#[derive(Clone, Debug)]
pub enum VmError {
    /// Access to unmapped memory (the hardware fault SAFECode relies on for
    /// uninitialized pointers).
    Fault {
        /// Offending address.
        addr: u64,
        /// Access length.
        len: u64,
    },
    /// User-mode access to privileged memory or instructions.
    Privilege {
        /// Offending address (or 0 for instruction traps).
        addr: u64,
    },
    /// Unknown or dead address space.
    BadAsid(u32),
    /// Integer division by zero.
    DivZero,
    /// `unreachable` executed.
    Unreachable,
    /// A run-time safety check fired (the SVA result).
    Safety(CheckError),
    /// Trap to an unregistered system call.
    UnknownSyscall(i64),
    /// Indirect call through a non-function address.
    BadIndirect(u64),
    /// Call to a declared-but-undefined external function.
    CallToExternal(String),
    /// Kernel or user stack exhausted.
    StackOverflow,
    /// Bad interrupt-context handle.
    BadIContext(u64),
    /// `llva.load.integer` from a buffer never saved to.
    BadStateBuffer(u64),
    /// Safety enforcement requested for a module without verifier output.
    NotVerified,
    /// Execution exceeded the configured fuel limit.
    OutOfFuel,
    /// `sva.recover.unwind` without a registered recovery context.
    NoRecoveryContext,
    /// Broken VM invariant surfaced as a structured error instead of a
    /// host panic (malformed inputs must never abort the host process).
    Internal(&'static str),
    /// Malformed module or unsupported construct.
    Unsupported(String),
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::Fault { addr, len } => write!(f, "memory fault at {addr:#x} (+{len})"),
            VmError::Privilege { addr } => write!(f, "privilege violation at {addr:#x}"),
            VmError::BadAsid(a) => write!(f, "bad address space {a}"),
            VmError::DivZero => write!(f, "division by zero"),
            VmError::Unreachable => write!(f, "unreachable executed"),
            VmError::Safety(e) => write!(f, "{e}"),
            VmError::UnknownSyscall(n) => write!(f, "unknown syscall {n}"),
            VmError::BadIndirect(a) => write!(f, "indirect call to {a:#x}"),
            VmError::CallToExternal(n) => write!(f, "call to external @{n}"),
            VmError::StackOverflow => write!(f, "stack overflow"),
            VmError::BadIContext(i) => write!(f, "bad interrupt context {i}"),
            VmError::BadStateBuffer(a) => write!(f, "no integer state saved at {a:#x}"),
            VmError::NotVerified => write!(f, "safety enforcement requires verified bytecode"),
            VmError::OutOfFuel => write!(f, "execution exceeded fuel limit"),
            VmError::NoRecoveryContext => write!(f, "no recovery context registered"),
            VmError::Internal(s) => write!(f, "internal VM invariant violated: {s}"),
            VmError::Unsupported(s) => write!(f, "unsupported: {s}"),
        }
    }
}

impl std::error::Error for VmError {}

/// Normal VM exits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmExit {
    /// The entry function returned this value.
    Returned(u64),
    /// `sva.abort(code)` halted the machine.
    Halted(u64),
}

/// The four kernel configurations of the paper's evaluation (§7.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelKind {
    /// "Linux-native": translated code, SVA-OS fast paths, no checks.
    Native,
    /// "Linux-SVA-GCC": tree-walking code generator, full SVA-OS, no checks.
    SvaGcc,
    /// "Linux-SVA-LLVM": translated code, full SVA-OS, no checks.
    SvaLlvm,
    /// "Linux-SVA-Safe": translated code, full SVA-OS, run-time checks.
    SvaSafe,
}

impl KernelKind {
    /// All four, in the paper's column order.
    pub const ALL: [KernelKind; 4] = [
        KernelKind::Native,
        KernelKind::SvaGcc,
        KernelKind::SvaLlvm,
        KernelKind::SvaSafe,
    ];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::Native => "native",
            KernelKind::SvaGcc => "sva-gcc",
            KernelKind::SvaLlvm => "sva-llvm",
            KernelKind::SvaSafe => "sva-safe",
        }
    }

    fn flat(self) -> bool {
        !matches!(self, KernelKind::SvaGcc)
    }

    fn fast_os(self) -> bool {
        matches!(self, KernelKind::Native)
    }

    /// Whether run-time safety checks execute.
    pub fn checks(self) -> bool {
        matches!(self, KernelKind::SvaSafe)
    }
}

/// VM construction options.
#[derive(Clone)]
pub struct VmConfig {
    /// Kernel configuration.
    pub kind: KernelKind,
    /// Instruction budget (guards against runaway guests); `u64::MAX` for
    /// unlimited.
    pub fuel: u64,
    /// The metapool lookup switch (DESIGN.md §4.1): on (the default),
    /// every pool's registry is a sorted range index answered by the
    /// singleton test, the MRU and a binary search; off, it is the
    /// paper's splay tree and every lookup is a splay walk — the baseline
    /// benchmarks measure against.
    pub fast_path: bool,
    /// Safety violations a metapool may absorb *within one recovery-domain
    /// scope* before it is permanently poisoned (DESIGN.md §4.3/§4.5).
    pub violation_budget: u32,
    /// Watchdog fuel per recovery domain (DESIGN.md §4.5): kernel-mode
    /// instructions the innermost domain may execute before the VM
    /// force-unwinds it with a watchdog resume code (kind 7), so a wedged
    /// handler cannot hang the machine. `u64::MAX` (the default) disables
    /// the watchdog.
    pub domain_fuel: u64,
    /// Deterministic fault-injection hook consulted at every user→kernel
    /// trap. `None` (the default) leaves the machine untouched.
    pub fault_hook: Option<Arc<dyn FaultHook>>,
    /// Optimizing-translation tier (DESIGN.md §4.4). `0` (the default)
    /// translates exactly as the baseline tier — no fusion, byte-identical
    /// flat code. Any other level fuses every function.
    pub opt_level: u8,
    /// Virtual CPUs of the machine (DESIGN.md §4.9). `1` (the default) is
    /// the classic single-threaded machine, bit-identical to the pre-SMP
    /// VM. At 2+ the [`crate::smp::SmpMachine`] runner forks one full VM
    /// per job, sharing the code image and a metapool plane published per
    /// slot; each vCPU keeps its private MRU, check counters and trace
    /// rings, merged deterministically at halt.
    pub vcpus: u32,
}

impl std::fmt::Debug for VmConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VmConfig")
            .field("kind", &self.kind)
            .field("fuel", &self.fuel)
            .field("fast_path", &self.fast_path)
            .field("violation_budget", &self.violation_budget)
            .field("domain_fuel", &self.domain_fuel)
            .field("fault_hook", &self.fault_hook.is_some())
            .field("opt_level", &self.opt_level)
            .field("vcpus", &self.vcpus)
            .finish()
    }
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            kind: KernelKind::SvaSafe,
            fuel: u64::MAX,
            fast_path: true,
            violation_budget: 3,
            domain_fuel: u64::MAX,
            fault_hook: None,
            opt_level: 0,
            vcpus: 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Fault injection (DESIGN.md §4.3).
// ---------------------------------------------------------------------------

/// Observation point handed to a [`FaultHook`] on each user→kernel trap,
/// before the handler frame is built.
#[derive(Clone, Copy, Debug)]
pub struct TrapInfo<'a> {
    /// Ordinal of this trap since boot — the deterministic schedule key.
    pub trap_index: u64,
    /// Syscall number being dispatched.
    pub syscall: i64,
    /// Handler arguments as passed from user mode.
    pub args: &'a [u64],
}

/// What a [`FaultHook`] asks the machine to perturb at a trap boundary.
///
/// Every field defaults to "do nothing"; a hook returns a default action
/// to let the trap through untouched.
#[derive(Clone, Debug, Default)]
pub struct FaultAction {
    /// Overwrite handler argument `index` with `value` before the handler
    /// frame is built (wild kernel pointers, bad lengths).
    pub mutate_args: Vec<(usize, u64)>,
    /// Skew the result of the next `count` kernel-mode GEPs by `delta`
    /// bytes: `(count, delta)`.
    pub gep_skew: Option<(u32, i64)>,
    /// After handler entry, model a kernel dereference of the given
    /// address through the given pool's load/store check: `(pool, addr)`.
    /// A failing check takes the normal safety-violation path.
    pub probe_stale: Option<(u32, u64)>,
    /// Defer [`FaultAction::probe_stale`] by this many kernel-mode
    /// instructions instead of probing at handler entry, so the modelled
    /// dereference happens *inside* the handler body — after a nested
    /// kernel has pushed its per-syscall recovery domain. `0` keeps the
    /// probe at handler entry.
    pub probe_defer: u64,
    /// Corrupt the given pool's object metadata deterministically:
    /// `(pool, seed)`.
    pub corrupt_pool: Option<(u32, u64)>,
    /// Force the next `n` object registrations in the pool to fail as if
    /// allocation metadata ran out: `(pool, n)`.
    pub fail_allocs: Option<(u32, u32)>,
    /// Queue this many vector-0 interrupts (IRQ storm mid-syscall).
    pub raise_irqs: u32,
}

/// A deterministic fault-injection plan applied at VM boundaries.
///
/// Implementations must be pure functions of their construction seed and
/// the [`TrapInfo`] stream so campaigns replay bit-identically.
pub trait FaultHook: Send + Sync {
    /// Consulted on every user→kernel trap.
    fn on_trap(&self, info: &TrapInfo<'_>) -> FaultAction;
    /// Notified when an object is dropped from a pool, letting plans learn
    /// stale addresses for later use-after-free probes.
    fn on_pool_drop(&self, _pool: u32, _addr: u64) {}
}

// ---------------------------------------------------------------------------
// Flat ("translated native") code.
// ---------------------------------------------------------------------------

/// A pre-resolved operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Src {
    /// Register (SSA value slot).
    Reg(u32),
    /// Immediate (already encoded as u64 bits).
    Imm(u64),
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum FlatCallee {
    Direct(u32),
    External(u32),
    Indirect(Src),
    Intrinsic(Intrinsic),
}

#[derive(Clone, Debug)]
pub(crate) enum FlatOp {
    Bin {
        op: BinOp,
        w: u8,
        dst: u32,
        a: Src,
        b: Src,
    },
    ICmp {
        pred: IPred,
        w: u8,
        dst: u32,
        a: Src,
        b: Src,
    },
    Select {
        dst: u32,
        c: Src,
        a: Src,
        b: Src,
    },
    Cast {
        dst: u32,
        a: Src,
        op: CastOp,
        from_w: u8,
        to_w: u8,
    },
    Gep {
        dst: u32,
        base: Src,
        const_off: i64,
        dynamic: Vec<(Src, u64, u8)>,
    },
    Load {
        dst: u32,
        ptr: Src,
        w: u8,
    },
    Store {
        val: Src,
        ptr: Src,
        w: u8,
    },
    Alloca {
        dst: u32,
        elem: u64,
        count: Src,
        align: u64,
    },
    Call {
        dst: Option<u32>,
        callee: FlatCallee,
        args: Vec<Src>,
    },
    // ---- the three pure checks, operands inline (DESIGN.md §4.11) ----
    /// `pchk.lscheck(mp, addr)`.
    LsCheck {
        mp: u32,
        addr: Src,
    },
    /// `pchk.bounds(mp, src, addr)`.
    BoundsCheck {
        mp: u32,
        src: Src,
        addr: Src,
    },
    /// `pchk.bounds.range(start, addr, end)`.
    RangeCheck {
        start: Src,
        addr: Src,
        end: Src,
    },
    Phi {
        dst: u32,
        incomings: Vec<(u32, Src)>,
    },
    AtomicRmw {
        op: AtomicOp,
        dst: u32,
        ptr: Src,
        val: Src,
        w: u8,
    },
    CmpXchg {
        dst: u32,
        ptr: Src,
        expected: Src,
        new: Src,
        w: u8,
    },
    Fence,
    Br {
        pc: u32,
        from: u32,
    },
    CondBr {
        c: Src,
        tpc: u32,
        fpc: u32,
        from: u32,
    },
    Switch {
        v: Src,
        w: u8,
        dpc: u32,
        cases: Vec<(i64, u32)>,
        from: u32,
    },
    Ret {
        val: Option<Src>,
    },
    Unreachable,
    // ---- optimizing-tier ops (DESIGN.md §4.4) ----
    //
    // The fusion pass rewrites an adjacent pair in place: the first op of
    // the pair becomes the fused superinstruction and the second becomes
    // `Nop`, so every pc — block starts, branch targets — stays valid with
    // zero remapping. Fused handlers skip their own placeholder, so a
    // `Nop` is never dispatched on a legal path.
    /// Placeholder left where the second op of a fused pair used to be.
    Nop,
    /// Degenerate phi whose incomings all carry the same value.
    Mov {
        dst: u32,
        src: Src,
    },
    /// `gep` + `load` through the (otherwise dead) address register.
    FusedGepLoad {
        dst: u32,
        base: Src,
        const_off: i64,
        dynamic: Vec<(Src, u64, u8)>,
        w: u8,
    },
    /// `gep` + inserted pool check ([`FlatOp::BoundsCheck`] or
    /// [`FlatOp::LsCheck`]) + `load`: the checked-kernel triple. The
    /// address register has exactly two reads — the check operand and
    /// the load pointer — both swallowed here, which is why the pairwise
    /// single-use rule alone could never fuse a checked GEP. The check runs unchanged against the
    /// skew-adjusted address (same cycle charge, same lookup and trace
    /// attribution, same failure path), then the load retires.
    FusedGepChkLoad {
        dst: u32,
        base: Src,
        const_off: i64,
        dynamic: Vec<(Src, u64, u8)>,
        w: u8,
        /// Metapool the swallowed check targets.
        mp: u32,
        /// `Some(src)` = `pchk.bounds(mp, src, addr)`; `None` =
        /// `pchk.lscheck(mp, addr)`.
        chk_src: Option<Src>,
    },
    /// `gep` + `store` through the (otherwise dead) address register.
    FusedGepStore {
        val: Src,
        base: Src,
        const_off: i64,
        dynamic: Vec<(Src, u64, u8)>,
        w: u8,
    },
    /// `icmp` + `condbr` on the (otherwise dead) flag register.
    FusedCmpBr {
        pred: IPred,
        w: u8,
        a: Src,
        b: Src,
        tpc: u32,
        fpc: u32,
        from: u32,
    },
    /// Two dependent `bin` ops; the intermediate register is dead.
    /// `t = a op1 b; dst = t op2 c` when `t_lhs`, else `dst = c op2 t`.
    FusedBin2 {
        op1: BinOp,
        w1: u8,
        a: Src,
        b: Src,
        op2: BinOp,
        w2: u8,
        c: Src,
        t_lhs: bool,
        dst: u32,
    },
}

impl FlatOp {
    /// Static opcode name for trace attribution. Intrinsic calls report
    /// the intrinsic name (`"pchk.bounds"`, `"sva.syscall"`, ...), which is
    /// where the interesting cycles live.
    fn opcode_name(&self) -> &'static str {
        match self {
            FlatOp::Bin { .. } => "bin",
            FlatOp::ICmp { .. } => "icmp",
            FlatOp::Select { .. } => "select",
            FlatOp::Cast { .. } => "cast",
            FlatOp::Gep { .. } => "gep",
            FlatOp::Load { .. } => "load",
            FlatOp::Store { .. } => "store",
            FlatOp::Alloca { .. } => "alloca",
            FlatOp::Call {
                callee: FlatCallee::Intrinsic(i),
                ..
            } => i.name(),
            FlatOp::Call { .. } => "call",
            FlatOp::LsCheck { .. } => Intrinsic::LsCheck.name(),
            FlatOp::BoundsCheck { .. } => Intrinsic::BoundsCheck.name(),
            FlatOp::RangeCheck { .. } => Intrinsic::BoundsCheckRange.name(),
            FlatOp::Phi { .. } => "phi",
            FlatOp::AtomicRmw { .. } => "atomicrmw",
            FlatOp::CmpXchg { .. } => "cmpxchg",
            FlatOp::Fence => "fence",
            FlatOp::Br { .. } => "br",
            FlatOp::CondBr { .. } => "condbr",
            FlatOp::Switch { .. } => "switch",
            FlatOp::Ret { .. } => "ret",
            FlatOp::Unreachable => "unreachable",
            FlatOp::Nop => "nop",
            FlatOp::Mov { .. } => "mov",
            FlatOp::FusedGepLoad { .. } => "gep+load",
            FlatOp::FusedGepChkLoad { .. } => "gep+pchk+load",
            FlatOp::FusedGepStore { .. } => "gep+store",
            FlatOp::FusedCmpBr { .. } => "icmp+br",
            FlatOp::FusedBin2 { .. } => "bin+bin",
        }
    }
}

/// Tree-engine counterpart of [`FlatOp::opcode_name`].
fn inst_opcode_name(inst: &Inst) -> &'static str {
    match inst {
        Inst::Bin { .. } => "bin",
        Inst::ICmp { .. } => "icmp",
        Inst::Select { .. } => "select",
        Inst::Cast { .. } => "cast",
        Inst::Gep { .. } => "gep",
        Inst::Load { .. } => "load",
        Inst::Store { .. } => "store",
        Inst::Alloca { .. } => "alloca",
        Inst::Call {
            callee: Callee::Intrinsic(i),
            ..
        } => i.name(),
        Inst::Call { .. } => "call",
        Inst::Phi { .. } => "phi",
        Inst::AtomicRmw { .. } => "atomicrmw",
        Inst::CmpXchg { .. } => "cmpxchg",
        Inst::Fence => "fence",
        Inst::Br { .. } => "br",
        Inst::CondBr { .. } => "condbr",
        Inst::Switch { .. } => "switch",
        Inst::Ret { .. } => "ret",
        Inst::Unreachable => "unreachable",
    }
}

#[derive(Clone, Debug, Default)]
pub(crate) struct FlatFunc {
    pub ops: Vec<FlatOp>,
}

/// The loaded, immutable code image shared by the execution loop.
pub(crate) struct CodeImage {
    pub module: Module,
    pub flat: Vec<FlatFunc>,
    pub global_addr: Vec<u64>,
    /// Lazily computed code manifest (snapshot v4 / migration). Shared
    /// across forks through the `Arc`, so a machine family prints the
    /// module at most once no matter how many snapshots it takes.
    pub manifest: std::sync::OnceLock<crate::snapshot::CodeManifest>,
    /// Lazily computed [`Self::code_identity`], cached the same way: a
    /// snapshot, restore, bundle or migration would otherwise re-encode
    /// the whole module each time.
    pub code_id: std::sync::OnceLock<u64>,
}

impl CodeImage {
    pub(crate) fn manifest(&self) -> &crate::snapshot::CodeManifest {
        self.manifest
            .get_or_init(|| crate::snapshot::compute_manifest(&self.module))
    }

    /// FNV identity of the code: the module's bytecode, which the
    /// translation cache is a pure function of and which never changes.
    pub(crate) fn code_identity(&self) -> u64 {
        *self
            .code_id
            .get_or_init(|| sva_ir::codec::fnv64(&sva_ir::bytecode::encode_module(&self.module)))
    }
}

// ---------------------------------------------------------------------------
// Execution state.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
pub(crate) struct Frame {
    pub func: u32,
    /// Flat pc (flat engine; the tree engine leaves it 0).
    pub pc: u32,
    /// Block and instruction index (tree engine; the flat engine leaves
    /// them 0).
    pub block: u32,
    pub idx: u32,
    pub prev_block: u32,
    pub regs: Vec<u64>,
    pub ret_dst: Option<u32>,
    pub mode: Mode,
    pub sp_saved: u64,
    /// Stack registrations to auto-drop on pop: `(metapool, addr)`.
    pub stack_regs: Vec<(u32, u64, u64)>,
}

/// A captured thread (DESIGN.md §4.3): what [`Vm::capture`] saves and
/// [`Vm::resume`] puts back.
#[derive(Clone, Debug)]
pub(crate) struct Continuation {
    pub frames: Vec<Frame>,
    pub icid: Option<u32>,
    pub asid: u32,
    pub ksp: u64,
    /// Saved and restored by a recovery domain, not by
    /// `llva.save.integer` (`None`).
    pub usp: Option<u64>,
    /// The live kernel-stack bytes, `KSTACK_BASE..ksp`.
    pub kstack: Vec<u8>,
    /// The capturing call's result register, which a resume overwrites.
    pub dst: Option<u32>,
}

/// Recovery domain registered by `sva.recover.register` (setjmp-like;
/// DESIGN.md §4.3/§4.5). Domains form a stack: a kernel-mode safety
/// violation unwinds the thread to the *innermost* snapshot instead of
/// terminating the machine, and `sva.recover.release` (no arguments) pops
/// the innermost domain, ending the quarantine scope of every pool it
/// quarantined.
#[derive(Clone, Debug)]
pub(crate) struct RecoveryCtx {
    /// Where an unwind resumes.
    pub cont: Continuation,
    /// Owning-subsystem id (`sva.recover.register` argument 0; purely
    /// attribution — surfaced in trace events and the blast-radius report).
    pub subsys: u64,
    /// Remaining watchdog fuel ([`VmConfig::domain_fuel`] at push). Ticks
    /// down once per kernel-mode instruction while this domain is
    /// innermost; at zero the VM force-unwinds the domain.
    pub fuel: u64,
    /// Metapools this domain quarantined (scoped containment): their
    /// scope ends — quarantine released, scoped budget reset — when the
    /// domain pops.
    pub quarantined_pools: Vec<u32>,
}

/// An interrupt context (paper §3.3): the interrupted control state handed
/// to the kernel on a trap.
#[derive(Clone, Debug, Default)]
pub(crate) struct IContext {
    pub frames: Vec<Frame>,
    pub usp: u64,
    pub asid: u32,
    pub privileged: bool,
    pub result_dst: Option<u32>,
    /// Frame index (within `frames`) the syscall result belongs to; pushed
    /// signal handlers sit above it.
    pub result_frame: usize,
    pub live: bool,
    /// Tracing bookkeeping for syscall spans: `(syscall number, cycle
    /// counter at trap entry)`. Always `None` with tracing off.
    pub trace_sys: Option<(i64, u64)>,
}

#[derive(Clone, Debug)]
pub(crate) struct Thread {
    pub frames: Vec<Frame>,
    pub asid: u32,
    pub icid: Option<u32>,
    pub ksp: u64,
    pub usp: u64,
    pub fp_dirty: bool,
}

impl Thread {
    fn new() -> Self {
        Thread {
            frames: Vec::new(),
            asid: 0,
            icid: None,
            ksp: KSTACK_BASE,
            usp: USER_END - USTACK_SIZE,
            fp_dirty: false,
        }
    }
}

/// User stack size within each address space.
pub const USTACK_SIZE: u64 = 0x0001_0000; // 64 KiB

sva_trace::counter_table! {
    /// Execution statistics.
    ///
    /// `PartialEq`/`Eq` exist so the tracer-equivalence tests can assert the
    /// whole block byte-identical with tracing on and off. The four lookup
    /// counters are the pool totals [`Vm::stats`] copies in from the
    /// metapools, so they share the `check.lookup.*` series.
    pub struct VmStats {
        /// Adds another stats block into this one (SMP per-vCPU merge).
        fn fold;
        /// Instructions executed.
        instructions => "vm.instructions",
        /// Virtual cycles (instructions plus SVA-OS ceremony costs).
        cycles => "vm.cycles",
        /// Traps taken (syscalls from user mode).
        traps => "vm.traps",
        /// Known-bounds range checks executed (no splay lookup).
        range_checks => "check.range_checks",
        /// Context switches (`llva.load.integer`).
        context_switches => "vm.context_switches",
        /// Hardware interrupts delivered.
        interrupts => "vm.interrupts",
        /// Metapool lookups answered by the MRU last-hit cache.
        cache_hits => "check.lookup.cache_hits",
        /// Metapool lookups resolved by the range index's binary search (a
        /// hit or a definitive miss; the name predates the index).
        page_hits => "check.lookup.page_hits",
        /// Metapool lookups that walked the splay tree.
        tree_walks => "check.lookup.tree_walks",
        /// Metapool lookups answered by the singleton-pool two-compare test.
        singleton_hits => "check.lookup.singleton_hits",
        /// Kernel-mode safety violations absorbed by a recovery context.
        violations_recovered => "recovery.violations_recovered",
        /// Metapools placed under quarantine after a violation.
        pools_quarantined => "recovery.pools_quarantined",
        /// Metapools permanently poisoned after exhausting their budget.
        pools_poisoned => "recovery.pools_poisoned",
        /// Recovery domains pushed (`sva.recover.register`).
        domains_pushed => "recovery.domains_pushed",
        /// Recovery domains popped (no-argument `sva.recover.release` or a
        /// watchdog force-pop).
        domains_popped => "recovery.domains_popped",
        /// Wedged domains force-unwound by the fuel watchdog
        /// ([`VmConfig::domain_fuel`]).
        watchdog_unwinds => "recovery.watchdog_unwinds",
        /// Superinstructions dispatched by the optimizing tier. Each fused
        /// dispatch retires *two* instructions (so `instructions` is invariant
        /// under fusion) but charges one dispatch cycle instead of two.
        fused_execs => "vm.fused_execs",
        /// `sva.recover.repair` invocations that repaired at least one pool.
        repairs => "recovery.repairs",
        /// Metapools unpoisoned and reinitialized across all repairs.
        pools_repaired => "recovery.pools_repaired",
        /// Probation verdicts: subsystem passed probation (back to live).
        probation_passed => "recovery.probation_passed",
        /// Probation verdicts: subsystem re-poisoned during probation
        /// (re-degraded with doubled backoff).
        probation_failed => "recovery.probation_failed",
        /// Probation verdicts: strike budget exhausted, subsystem permanently
        /// retired.
        subsys_retired => "recovery.subsys_retired",
    }
}

impl VmStats {
    /// The fusion-invariant projection of the stats block: everything the
    /// optimizing tier is allowed to change — `cycles` (fusion saves one
    /// dispatch cycle per fused pair) and `fused_execs` itself — zeroed.
    /// The equivalence gates assert `opt0.equivalence_key() ==
    /// opt2.equivalence_key()` and separately that opt2 spent *fewer*
    /// cycles.
    pub fn equivalence_key(mut self) -> VmStats {
        self.cycles = 0;
        self.fused_execs = 0;
        self
    }
}

/// The Secure Virtual Machine instance.
///
/// The `T: Tracer` parameter statically selects the instrumentation sink.
/// The default [`NullTracer`] has `Tracer::ENABLED = false`, so every
/// `if T::ENABLED { ... }` instrumentation block monomorphizes away and
/// the untraced VM is exactly the pre-tracing machine: same calibrated
/// cycle tables, same counters, no extra branches.
pub struct Vm<T: Tracer = NullTracer> {
    /// Simulated memory.
    pub mem: Memory,
    pub(crate) code: Arc<CodeImage>,
    pub(crate) cfg: VmConfig,
    pub(crate) thread: Thread,
    pub(crate) icontexts: Vec<IContext>,
    pub(crate) int_state: HashMap<u64, Continuation>,
    pub(crate) user_state: HashMap<u64, IContext>,
    pub(crate) syscalls: HashMap<i64, u32>,
    pub(crate) interrupts: HashMap<i64, u32>,
    /// Metapool run-time (live only under [`KernelKind::SvaSafe`]).
    pub pools: MetaPoolTable,
    /// Console output captured from `sva.print` / the console port.
    pub console: Vec<u8>,
    pub(crate) stats: VmStats,
    pub(crate) fuel: u64,
    pub(crate) halted: Option<u64>,
    pub(crate) pending_irq: std::collections::VecDeque<i64>,
    /// Stack of registered violation-recovery domains, innermost last.
    pub(crate) recovery: Vec<RecoveryCtx>,
    /// Armed GEP skew `(remaining count, delta)` from a fault action.
    pub(crate) gep_skew: Option<(u32, i64)>,
    /// Armed deferred stale probe `(countdown, pool, addr)` from a fault
    /// action; ticks per kernel-mode instruction and fires at zero.
    pub(crate) pending_probe: Option<(u64, u32, u64)>,
    /// Armed deferred GEP skew `(countdown, count, delta)`; ticks per
    /// kernel-mode instruction and arms `gep_skew` at zero.
    pub(crate) pending_skew: Option<(u64, u32, i64)>,
    /// Frame depth a host [`Vm::call`] started above: its run ends when
    /// the frame stack drops back to this floor (0 = no call active).
    pub(crate) call_floor: usize,
    /// User→kernel traps taken since boot (fault-plan schedule key).
    pub(crate) trap_count: u64,
    /// Reusable argument buffer for the hot `Call` path (avoids a fresh
    /// `Vec` allocation per call).
    pub(crate) argv_scratch: Vec<u64>,
    /// Fusion sites rewritten by the optimizing tier at load time.
    fused_sites: u32,
    /// This machine's virtual CPU id (`sva.cpu.id`). 0 on the classic
    /// single-threaded machine and on the boot vCPU; [`Vm::fork_for_cpu`]
    /// stamps the others.
    pub(crate) cpu_id: u32,
    /// Host-side crash-forensics capture state (opt-in, never part of a
    /// snapshot image).
    pub(crate) crash: crate::bundle::CrashCapture,
    /// The boundary countdown of a [`Vm::run_steps`] slice: `Some(n)`
    /// pauses the machine after n more instruction boundaries
    /// (DESIGN.md §4.10). Host-side, never serialized.
    pause_in: Option<u64>,
    pub(crate) tracer: T,
}

impl Vm {
    /// Loads a module under the given configuration (untraced).
    ///
    /// Under [`KernelKind::SvaSafe`] the module must carry pool annotations
    /// (i.e. be the output of the verifier); other configurations accept
    /// plain modules.
    pub fn new(module: Module, cfg: VmConfig) -> Result<Vm, VmError> {
        Vm::with_tracer(module, cfg, NullTracer)
    }
}

impl<T: Tracer> Vm<T> {
    /// Loads a module with an attached tracer. See [`Vm::new`] for the
    /// loading rules; the tracer additionally receives the module's
    /// function-name and metapool-name tables for exporters.
    pub fn with_tracer(module: Module, cfg: VmConfig, tracer: T) -> Result<Vm<T>, VmError> {
        if cfg.kind.checks() && module.pool_annotations.is_none() {
            return Err(VmError::NotVerified);
        }
        let mut mem = Memory::new();
        let mut global_addr = Vec::with_capacity(module.globals.len());
        let mut cursor = crate::mem::KERN_BASE + 0x1000;
        for g in &module.globals {
            let layout = module.types.layout(g.ty);
            cursor = round_up(cursor, layout.align.max(8));
            global_addr.push(cursor);
            cursor += layout.size;
        }
        // Initialize global contents.
        for (gi, g) in module.globals.iter().enumerate() {
            let addr = global_addr[gi];
            match &g.init {
                GlobalInit::Zero => {}
                GlobalInit::Bytes(b) => {
                    mem.write_bytes(addr, b, Mode::Kernel)?;
                }
                GlobalInit::Relocated { bytes, relocs } => {
                    mem.write_bytes(addr, bytes, Mode::Kernel)?;
                    for (off, t) in relocs {
                        let v = match t {
                            RelocTarget::Func(n) => {
                                func_addr(module.func_by_name(n).map(|f| f.0).ok_or_else(|| {
                                    VmError::Unsupported(format!("reloc to unknown @{n}"))
                                })?)
                            }
                            RelocTarget::Extern(n) => {
                                extern_addr(module.extern_by_name(n).map(|e| e.0).ok_or_else(
                                    || VmError::Unsupported(format!("reloc to unknown @{n}")),
                                )?)
                            }
                            RelocTarget::Global(n) => {
                                let g2 = module.global_by_name(n).ok_or_else(|| {
                                    VmError::Unsupported(format!("reloc to unknown @{n}"))
                                })?;
                                global_addr[g2.0 as usize]
                            }
                        };
                        mem.write_uint(addr + off, 8, v, Mode::Kernel)?;
                    }
                }
            }
        }

        // Metapool runtime from the annotations. Every pool operand is
        // checked against it once, here, so the run-time paths index the
        // table directly.
        let pa = if cfg.kind.checks() {
            Some(
                module
                    .pool_annotations
                    .as_ref()
                    .ok_or(VmError::NotVerified)?,
            )
        } else {
            None
        };
        check_pool_operands(&module, pa)?;
        let mut pools = MetaPoolTable::new();
        if let Some(pa) = pa {
            for d in &pa.metapools {
                // Function types are unsized; a pool whose element type is
                // a function (e.g. one inferred behind a fops table) gets
                // no element size and is treated as non-homogeneous.
                let elem_size = d.elem_type.and_then(|t| match module.types.get(t) {
                    sva_ir::Type::Func { .. } => None,
                    _ => Some(module.types.size_of(t)),
                });
                pools.add_pool(MetaPool::new(
                    &d.name,
                    d.type_homogeneous,
                    d.complete,
                    elem_size,
                ));
            }
            for set in &pa.func_sets {
                let addrs: Vec<u64> = set
                    .iter()
                    .filter_map(|n| module.func_by_name(n))
                    .map(|f| func_addr(f.0))
                    .collect();
                pools.add_func_set(addrs);
            }
            // A module's globals are registered by the compiler-inserted
            // registrations its entry runs; at load the SVM registers only
            // the userspace pseudo-object (paper §4.6).
            for (i, d) in pa.metapools.iter().enumerate() {
                if d.userspace {
                    let _ = pools
                        .pool_mut(sva_rt::MetaPoolId(i as u32))
                        .reg_obj(USER_BASE, USER_SIZE);
                }
            }
            // Modules without a designated kernel entry have no function
            // that runs the compiler-inserted global registrations; the SVM
            // registers their globals at load time instead.
            if module.entry.is_none() {
                for (gi, mp) in pa.global_pools.iter().enumerate() {
                    if let Some(mp) = mp {
                        let addr = global_addr[gi];
                        let size = module.types.size_of(module.globals[gi].ty);
                        pools
                            .pool_mut(sva_rt::MetaPoolId(*mp))
                            .reg_obj(addr, size)
                            .map_err(VmError::Safety)?;
                    }
                }
            }
        }
        if !cfg.fast_path {
            pools.set_fast_path(false);
        }

        // Translation to the flat "native" form.
        let mut flat = if cfg.kind.flat() {
            module
                .funcs
                .iter()
                .map(|f| translate(&module, f, &global_addr))
                .collect::<Result<Vec<_>, _>>()?
        } else {
            Vec::new()
        };
        // Optimizing tier (DESIGN.md §4.4): superinstruction fusion over
        // every function's flat code.
        let mut fused_sites = 0u32;
        if cfg.opt_level > 0 {
            for ff in flat.iter_mut() {
                fused_sites += crate::opt::fuse_flat(ff);
            }
        }

        let fuel = cfg.fuel;
        let mut vm = Vm {
            mem,
            code: Arc::new(CodeImage {
                module,
                flat,
                global_addr,
                manifest: std::sync::OnceLock::new(),
                code_id: std::sync::OnceLock::new(),
            }),
            cfg,
            thread: Thread::new(),
            icontexts: Vec::new(),
            int_state: HashMap::new(),
            user_state: HashMap::new(),
            syscalls: HashMap::new(),
            interrupts: HashMap::new(),
            pools,
            console: Vec::new(),
            stats: VmStats::default(),
            fuel,
            halted: None,
            pending_irq: std::collections::VecDeque::new(),
            recovery: Vec::new(),
            gep_skew: None,
            pending_probe: None,
            pending_skew: None,
            call_floor: 0,
            trap_count: 0,
            argv_scratch: Vec::new(),
            fused_sites,
            cpu_id: 0,
            crash: crate::bundle::CrashCapture::default(),
            pause_in: None,
            tracer,
        };
        if T::ENABLED {
            let fnames: Vec<String> = vm
                .code
                .module
                .funcs
                .iter()
                .map(|f| f.name.clone())
                .collect();
            vm.tracer.note_function_names(&fnames);
            let pnames: Vec<String> = (0..vm.pools.len())
                .map(|i| vm.pools.pool(sva_rt::MetaPoolId(i as u32)).name.clone())
                .collect();
            vm.tracer.note_pool_names(&pnames);
        }
        Ok(vm)
    }

    /// The attached tracer.
    pub fn tracer(&self) -> &T {
        &self.tracer
    }

    /// Mutable access to the attached tracer (e.g. to fold final
    /// `CheckStats` into its metrics registry).
    pub fn tracer_mut(&mut self) -> &mut T {
        &mut self.tracer
    }

    /// Consumes the VM, returning the tracer (end-of-run export).
    pub fn into_tracer(self) -> T {
        self.tracer
    }

    /// The loaded module.
    pub fn module(&self) -> &Module {
        &self.code.module
    }

    /// Execution statistics so far. The lookup-layer counters are pulled
    /// from the metapool runtime so callers see one coherent snapshot.
    pub fn stats(&self) -> VmStats {
        let mut s = self.stats;
        let pool_stats = self.pools.total_stats();
        s.cache_hits = pool_stats.cache_hits;
        s.page_hits = pool_stats.page_hits;
        s.tree_walks = pool_stats.tree_walks;
        s.singleton_hits = pool_stats.singleton_hits;
        s
    }

    /// Fusion sites the optimizing tier rewrote at load time (0 at
    /// `opt_level` 0).
    pub fn fused_sites(&self) -> u32 {
        self.fused_sites
    }

    /// How many of the installed fusion sites are gep+pchk+load triples
    /// (`FusedGepChkLoad`) — the checked-kernel-specific rewrite that
    /// swallows a metapool check between address formation and the load
    /// (DESIGN.md §4.4). Equivalence tests assert this is nonzero on the
    /// sva-safe kernel so the triple path cannot silently stop matching.
    pub fn fused_chk_sites(&self) -> u32 {
        self.code
            .flat
            .iter()
            .flat_map(|f| f.ops.iter())
            .filter(|op| matches!(op, FlatOp::FusedGepChkLoad { .. }))
            .count() as u32
    }

    /// This machine's virtual CPU id (what `sva.cpu.id` returns).
    pub fn cpu_id(&self) -> u32 {
        self.cpu_id
    }

    /// SMP bring-up (DESIGN.md §4.9): forks an independent vCPU machine
    /// from this booted machine's state. The code image is *shared*
    /// (`Arc` — translation and fusion happen once); everything mutable —
    /// memory, thread, interrupt contexts, recovery-domain stack, pool
    /// table with its private MRU/counters — is deep-cloned, so each vCPU
    /// steps without synchronizing. Memory is cloned region by region,
    /// copying only the written pages, so a fork costs what the machine
    /// has written, not the 32 MiB kernel region. Shared metadata comes
    /// later: [`MetaPoolTable::bind_shared`] rebinds each fork's pools to
    /// the machine's plane. The fork starts with fresh stats/fuel/forensics
    /// and an untraced sink; per-vCPU counters are merged back at halt.
    ///
    /// Kernel stacks are per-CPU: the `KSTACK` window is carved into
    /// `cfg.vcpus` equal lanes and the fork's kernel stack pointer starts
    /// at the base of lane `cpu_id`. CPU 0's lane starts where the
    /// classic machine's stack does, so a 1-vCPU fork is byte-identical.
    pub fn fork_for_cpu(&self, cpu_id: u32) -> Vm {
        self.fork_for_cpu_traced(cpu_id, NullTracer)
    }

    /// Like [`Vm::fork_for_cpu`] with an attached per-vCPU tracer (e.g.
    /// a `RingTracer` whose ring is merged at halt with
    /// `EventRing::fold_into`).
    pub fn fork_for_cpu_traced<U: Tracer>(&self, cpu_id: u32, tracer: U) -> Vm<U> {
        let lanes = self.cfg.vcpus.max(1) as u64;
        let lane = (KSTACK_END - KSTACK_BASE) / lanes;
        let mut thread = self.thread.clone();
        thread.ksp += u64::from(cpu_id).min(lanes - 1) * lane;
        Vm {
            mem: self.mem.clone(),
            code: Arc::clone(&self.code),
            cfg: self.cfg.clone(),
            thread,
            icontexts: self.icontexts.clone(),
            int_state: self.int_state.clone(),
            user_state: self.user_state.clone(),
            syscalls: self.syscalls.clone(),
            interrupts: self.interrupts.clone(),
            pools: self.pools.clone(),
            console: Vec::new(),
            stats: VmStats::default(),
            fuel: self.cfg.fuel,
            halted: None,
            pending_irq: std::collections::VecDeque::new(),
            recovery: self.recovery.clone(),
            gep_skew: None,
            pending_probe: None,
            pending_skew: None,
            call_floor: 0,
            trap_count: 0,
            argv_scratch: Vec::new(),
            fused_sites: self.fused_sites,
            cpu_id,
            crash: crate::bundle::CrashCapture::default(),
            pause_in: None,
            tracer,
        }
    }

    /// Console output as a lossy string.
    pub fn console_string(&self) -> String {
        String::from_utf8_lossy(&self.console).into_owned()
    }

    /// Queues a hardware interrupt. It is delivered at the next
    /// instruction boundary while the machine runs in *user* mode (the
    /// mini-kernel is non-preemptible, like Linux 2.4): the user
    /// computation is captured in an interrupt context and the registered
    /// handler runs in kernel mode; returning resumes the context
    /// (paper §3.3).
    pub fn raise_interrupt(&mut self, vector: i64) {
        self.pending_irq.push_back(vector);
    }

    /// Function names of the current frame stack, innermost last
    /// (diagnostics for guest crashes).
    pub fn backtrace(&self) -> Vec<String> {
        self.thread
            .frames
            .iter()
            .map(|f| self.code.module.funcs[f.func as usize].name.clone())
            .collect()
    }

    /// Address of a function (for wiring globals / exec tables in tests).
    pub fn func_address(&self, name: &str) -> Option<u64> {
        self.code.module.func_by_name(name).map(|f| func_addr(f.0))
    }

    /// Address of a global.
    pub fn global_address(&self, name: &str) -> Option<u64> {
        self.code
            .module
            .global_by_name(name)
            .map(|g| self.code.global_addr[g.0 as usize])
    }

    /// Writes a u64 into a named global (boot parameters).
    pub fn write_global_u64(&mut self, name: &str, v: u64) -> Result<(), VmError> {
        let addr = self
            .global_address(name)
            .ok_or_else(|| VmError::Unsupported(format!("no global @{name}")))?;
        self.mem.write_uint(addr, 8, v, Mode::Kernel)
    }

    /// Reads a u64 from a named global.
    pub fn read_global_u64(&mut self, name: &str) -> Result<u64, VmError> {
        let addr = self
            .global_address(name)
            .ok_or_else(|| VmError::Unsupported(format!("no global @{name}")))?;
        self.mem.read_uint(addr, 8, Mode::Kernel)
    }

    /// Disarms any fault-injection state still pending (deferred probes,
    /// GEP skew) and detaches the fault hook. Campaigns call this between
    /// the injection run and post-fault serviceability probes so a
    /// leftover armed fault cannot fire during the probe phase.
    pub fn disarm_faults(&mut self) {
        self.pending_probe = None;
        self.pending_skew = None;
        self.gep_skew = None;
        self.cfg.fault_hook = None;
    }

    /// Attaches (or replaces) the fault hook. Snapshot-forked campaigns
    /// keep one translated machine per boot image and re-arm a fresh plan
    /// before each [`Vm::restore`]-and-run cycle; the hook is not part of
    /// the snapshot config fingerprint, so swapping it never invalidates
    /// an image.
    pub fn arm_faults(&mut self, hook: Arc<dyn FaultHook>) {
        self.cfg.fault_hook = Some(hook);
    }

    /// Calls a public function in kernel mode and runs to completion —
    /// of *that call*: the run stops when the pushed frame returns, so
    /// frames a halted boot left suspended underneath are not resumed.
    pub fn call(&mut self, name: &str, args: &[u64]) -> Result<VmExit, VmError> {
        let fid = self
            .code
            .module
            .func_by_name(name)
            .ok_or_else(|| VmError::Unsupported(format!("no function @{name}")))?;
        self.enter(fid.0, args, Self::run)
    }

    /// Boots the module: runs its designated entry function.
    pub fn boot(&mut self) -> Result<VmExit, VmError> {
        let entry = self.entry()?;
        self.enter(entry, &[], Self::run)
    }

    fn entry(&self) -> Result<u32, VmError> {
        self.code
            .module
            .entry
            .map(|f| f.0)
            .ok_or_else(|| VmError::Unsupported("module has no entry".into()))
    }

    /// The one host entry: pushes a kernel-mode frame of `func` and lets
    /// `run` run the machine until that frame returns.
    fn enter<R>(
        &mut self,
        func: u32,
        args: &[u64],
        run: impl FnOnce(&mut Self) -> Result<R, VmError>,
    ) -> Result<R, VmError> {
        let frame = self.new_frame(func, args, args.len(), None, Mode::Kernel, self.thread.ksp)?;
        let saved_floor = std::mem::replace(&mut self.call_floor, self.thread.frames.len());
        self.thread.frames.push(frame);
        let r = run(self);
        self.call_floor = saved_floor;
        r
    }

    /// The one frame constructor: `func` bound to `args`, with a register
    /// per value and at least `min_regs` (a call pads to its argument
    /// count). A function past the module is [`VmError::BadIndirect`].
    fn new_frame(
        &self,
        func: u32,
        args: &[u64],
        min_regs: usize,
        ret_dst: Option<u32>,
        mode: Mode,
        sp_saved: u64,
    ) -> Result<Frame, VmError> {
        // Borrow the shared image rather than cloning its `Arc`: every
        // guest call lands here, and on an SMP machine all vCPUs would
        // otherwise bounce one reference count between their cores.
        let f = self
            .code
            .module
            .funcs
            .get(func as usize)
            .ok_or(VmError::BadIndirect(func_addr(func)))?;
        let mut regs = vec![0u64; f.num_values().max(min_regs)];
        for (p, a) in f.params.iter().zip(args) {
            if let Some(r) = regs.get_mut(p.0 as usize) {
                *r = *a;
            }
        }
        Ok(Frame {
            func,
            pc: 0,
            block: 0,
            idx: 0,
            prev_block: u32::MAX,
            regs,
            ret_dst,
            mode,
            sp_saved,
            stack_regs: Vec::new(),
        })
    }

    /// The function at guest address `addr`, under the bound
    /// [`Vm::new_frame`] applies: every code address the guest hands over
    /// passes here, so no table or context holds a function without one.
    fn func_at(&self, addr: u64) -> Result<u32, VmError> {
        addr_func(addr)
            .filter(|&f| (f as usize) < self.code.module.funcs.len())
            .ok_or(VmError::BadIndirect(addr))
    }

    /// Writes `v` into the innermost frame's result register `dst`.
    fn set_reg(&mut self, dst: Option<u32>, v: u64) -> Result<(), VmError> {
        if let Some(d) = dst {
            let fr = self.thread.frames.last_mut();
            fr.ok_or(VmError::Internal("result with no frame"))?.regs[d as usize] = v;
        }
        Ok(())
    }

    fn mode(&self) -> Mode {
        self.thread
            .frames
            .last()
            .map(|f| f.mode)
            .unwrap_or(Mode::Kernel)
    }

    /// Carves `count` elements of `elem` bytes off the current mode's
    /// stack. The guest supplies `count`, so a size or top that overflows
    /// is a [`VmError::StackOverflow`] like one past the stack's end.
    fn alloca(&mut self, elem: u64, count: u64, align: u64) -> Result<u64, VmError> {
        let (sp, end) = match self.mode() {
            Mode::Kernel => (&mut self.thread.ksp, KSTACK_END),
            Mode::User => (&mut self.thread.usp, USER_END),
        };
        let base = round_up(*sp, align.max(8));
        let top = elem
            .checked_mul(count)
            .and_then(|size| base.checked_add(size))
            .filter(|&top| top <= end)
            .ok_or(VmError::StackOverflow)?;
        *sp = top;
        Ok(base)
    }

    // --- main loop -------------------------------------------------------

    /// Runs until the outermost frame returns, the machine halts, or an
    /// error (including safety violations) occurs.
    pub fn run(&mut self) -> Result<VmExit, VmError> {
        Ok(self
            .run_inner(false)?
            .expect("only a run_steps countdown pauses run_inner(false)"))
    }

    /// Boots the module like [`Vm::boot`] but pauses at the first
    /// *user-mode* instruction boundary — the post-boot point machine
    /// snapshots are taken at. Returns `Ok(None)` when paused; `Ok(Some)`
    /// if the boot ran to completion without ever entering user mode.
    ///
    /// The pause is a host-side check at the top of the interpreter loop,
    /// so it charges no guest instructions or cycles: a machine resumed
    /// from here with [`Vm::run`] is byte-identical (fuel, stats, traps)
    /// to one that booted straight through.
    pub fn boot_to_user(&mut self) -> Result<Option<VmExit>, VmError> {
        let entry = self.entry()?;
        self.enter(entry, &[], |vm| vm.run_inner(true))
    }

    /// Runs at most `max` instruction-boundary iterations, returning
    /// `Ok(None)` if they ran out with the machine still live (state
    /// intact at the boundary). A countdown armed for the slice ticks
    /// with the fuel tank and is tested right after it, so the fuel an
    /// interrupted machine carries equals the value an uninterrupted run
    /// would have at the same boundary — which is what lets snapshot tests
    /// and quiesce cut a run at an arbitrary step and still compare
    /// byte-identical images — and a `max` at or past the remaining fuel
    /// ends in [`VmError::OutOfFuel`], as [`Vm::run`] does.
    pub fn run_steps(&mut self, max: u64) -> Result<Option<VmExit>, VmError> {
        self.pause_in = Some(max);
        let r = self.run_inner(false);
        self.pause_in = None;
        r
    }

    /// [`Vm::boot`] under a [`Vm::run_steps`] countdown of `max`.
    pub(crate) fn boot_steps(&mut self, max: u64) -> Result<Option<VmExit>, VmError> {
        let entry = self.entry()?;
        self.enter(entry, &[], |vm| vm.run_steps(max))
    }

    /// Remaining instruction fuel.
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// Refills the instruction fuel tank (e.g. after restoring a snapshot
    /// that was taken under a smaller budget).
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// The interpreter loop. With `pause_on_user` the loop returns
    /// `Ok(None)` at the first iteration that would execute a user-mode
    /// instruction, *before* charging fuel or stats for it.
    ///
    /// Each iteration runs the per-boundary prologue below once, then
    /// hands the flat engine a block of ops (DESIGN.md §4.11): the ops
    /// after the first skip a prologue that would have found nothing to
    /// do, and are charged the fuel, watchdog fuel and `run_steps`
    /// countdown ticks it would have taken.
    fn run_inner(&mut self, pause_on_user: bool) -> Result<Option<VmExit>, VmError> {
        let code = self.code.clone();
        loop {
            if let Some(c) = self.halted {
                // Capture *before* clearing `halted`: the bundle's
                // embedded snapshot then re-halts with the identical code
                // the moment a replay runs it.
                if c != 0 && self.crash.enabled {
                    self.capture_crash(
                        crate::bundle::CrashReason::Halt,
                        c,
                        format!("sva.abort({c})"),
                    );
                }
                self.halted = None;
                return Ok(Some(VmExit::Halted(c)));
            }
            if self.thread.frames.is_empty() {
                return Ok(Some(VmExit::Returned(0)));
            }
            if pause_on_user && self.mode() == Mode::User {
                return Ok(None);
            }
            if self.fuel == 0 {
                // Only terminal under an armed fault hook: fuel running
                // out in a campaign is a wedged machine.
                if self.crash.enabled && self.cfg.fault_hook.is_some() {
                    self.capture_crash(
                        crate::bundle::CrashReason::FuelExhausted,
                        0,
                        "instruction fuel exhausted under fault injection".to_string(),
                    );
                }
                return Err(VmError::OutOfFuel);
            }
            // A `run_steps` slice pauses here, after the empty-tank test,
            // so a slice that ends where the tank does is `OutOfFuel`.
            // The pause charges nothing.
            if let Some(n) = self.pause_in {
                if n == 0 {
                    return Ok(None);
                }
                self.pause_in = Some(n - 1);
            }
            self.fuel -= 1;
            // Domain watchdog (DESIGN.md §4.5): kernel-mode execution
            // ticks the innermost recovery domain's fuel; at zero the
            // domain is wedged and force-unwound so recovery itself can
            // never hang the machine. With no domain registered (or the
            // default infinite `domain_fuel`) this never fires and charges
            // nothing. `watched` is the ticking domain's slot, which the
            // ops a block runs past this boundary are charged to.
            let watched = if !self.recovery.is_empty() && self.mode() == Mode::Kernel {
                let slot = self.recovery.len() - 1;
                let rc = &mut self.recovery[slot];
                if rc.fuel == 0 {
                    self.watchdog_unwind()?;
                    continue;
                }
                rc.fuel -= 1;
                Some(slot)
            } else {
                None
            };
            // Deferred fault probe: counts down per kernel-mode
            // instruction, then models the stale dereference as this
            // boundary's step.
            let probed = match self.pending_probe {
                Some((cnt, pool, addr)) if self.mode() == Mode::Kernel => {
                    if cnt > 1 {
                        self.pending_probe = Some((cnt - 1, pool, addr));
                        Ok(())
                    } else {
                        self.pending_probe = None;
                        self.probe(pool, addr)
                    }
                }
                _ => Ok(()),
            };
            let step = probed.and_then(|()| self.step(&code, watched));
            // The one safety-violation exit (DESIGN.md §4.3/§4.5): a
            // kernel-mode violation with a registered recovery domain is
            // absorbed — the pool is quarantined within the innermost
            // domain's scope and the thread unwinds to it. Otherwise the
            // machine dies with `VmError::Safety`, captured first.
            let step = match step {
                Err(VmError::Safety(e)) => {
                    self.trace(EventClass::Violation, |_, _| TraceEvent::Violation {
                        check: e.kind.to_string(),
                        pool: e.pool.clone(),
                        addr: e.addr,
                        detail: e.detail.clone(),
                    });
                    if !self.recovery.is_empty() && self.mode() == Mode::Kernel {
                        self.recover_from(&e)
                    } else {
                        if self.crash.enabled {
                            let d = format!(
                                "{} pool={} addr={:#x} {}",
                                e.kind, e.pool, e.addr, e.detail
                            );
                            self.capture_crash(crate::bundle::CrashReason::SafetyEscape, 0, d);
                        }
                        Err(VmError::Safety(e))
                    }
                }
                other => other,
            };
            match step? {
                StepOut::Continue => {}
                StepOut::Exit(e) => return Ok(Some(e)),
            }
        }
    }

    /// One boundary's work after the prologue: ticks a deferred skew, then
    /// delivers a pending IRQ or runs a block of ops (DESIGN.md §4.11), or
    /// one on the tree engine. `watched` is the domain slot whose watchdog
    /// this boundary ticked.
    fn step(&mut self, code: &CodeImage, watched: Option<usize>) -> Result<StepOut, VmError> {
        // Deferred GEP skew: arms the live skew after the countdown so the
        // skewed derivations happen inside the handler body.
        if self.pending_skew.is_some() && self.mode() == Mode::Kernel {
            let (cnt, count, delta) = self.pending_skew.unwrap();
            if cnt > 1 {
                self.pending_skew = Some((cnt - 1, count, delta));
            } else {
                self.pending_skew = None;
                self.gep_skew = Some((count, delta));
            }
        }
        // Snapshot the cycle counter before this iteration charges
        // anything: the post-step delta is the cycles attributed to the
        // event recorded below, so summing event costs reproduces the
        // counter exactly (100% profile coverage by construction). Needed
        // by both the per-instruction and the IRQ-delivery events, so it is
        // read if either class is wanted.
        let iter_start = if T::wants(EventClass::Inst) || T::wants(EventClass::Irq) {
            self.stats.cycles
        } else {
            0
        };
        if !self.pending_irq.is_empty() && self.mode() == Mode::User {
            self.stats.instructions += 1;
            self.stats.cycles += 1;
            let vector = self.deliver_interrupt()?;
            self.trace(EventClass::Irq, |_, ts| TraceEvent::IrqDeliver {
                vector,
                cost: ts - iter_start,
            });
            return Ok(StepOut::Continue);
        }
        let (func, opcode) = if T::wants(EventClass::Inst) {
            (
                self.thread
                    .frames
                    .last()
                    .map(|f| f.func)
                    .unwrap_or(u32::MAX),
                self.current_opcode(code),
            )
        } else {
            (0, "")
        };
        let step = if self.cfg.kind.flat() {
            // The block budget (DESIGN.md §4.11): 1 while anything acts at
            // a single boundary — per-instruction tracing or a deferred
            // probe or skew counting down — otherwise as many ops as the
            // fuel, the ticking domain's watchdog fuel and a `run_steps`
            // countdown leave before their next boundary action. This
            // op's units are charged already, hence the `+ 1`s.
            let budget = if T::wants(EventClass::Inst)
                || self.pending_probe.is_some()
                || self.pending_skew.is_some()
            {
                1
            } else {
                let mut b = self.fuel.saturating_add(1);
                if let Some(slot) = watched {
                    b = b.min(self.recovery[slot].fuel.saturating_add(1));
                }
                if let Some(n) = self.pause_in {
                    b = b.min(n.saturating_add(1));
                }
                b
            };
            let mut ran = 0;
            let step = self.exec_flat(code, budget, &mut ran);
            // Charge the boundaries the block ran past before anything
            // looks at the machine: recovery, crash capture and the caller
            // all see what single steps would have left. The watchdog slot
            // still names the ticking domain when the block's last op
            // pushed a domain above it, and names nothing when that op
            // popped it.
            let skipped = ran.saturating_sub(1);
            if skipped > 0 {
                self.fuel -= skipped;
                if let Some(rc) = watched.and_then(|s| self.recovery.get_mut(s)) {
                    rc.fuel -= skipped;
                }
                if let Some(n) = self.pause_in.as_mut() {
                    *n -= skipped;
                }
            }
            step
        } else {
            self.stats.instructions += 1;
            self.stats.cycles += 1;
            self.step_tree(code)
        };
        self.trace(EventClass::Inst, |_, ts| TraceEvent::Inst {
            func,
            opcode,
            cost: ts - iter_start,
        });
        step
    }

    /// Absorbs a kernel-mode safety violation: attributes it to a metapool
    /// (quarantining it within the innermost domain's scope, and poisoning
    /// past the scoped budget), then unwinds the thread to the innermost
    /// registered recovery domain with a packed resume code describing
    /// what happened.
    fn recover_from(&mut self, e: &sva_rt::CheckError) -> Result<StepOut, VmError> {
        // Function sets ("funcset{N}") and the static range carry pool
        // names that are not metapools; those violations unwind without a
        // quarantine target.
        let pool_id = self.pools.find_by_name(&e.pool);
        let mut poisoned = false;
        if let Some(pid) = pool_id {
            let budget = self.cfg.violation_budget;
            // Attribute a budget-crossing poison to the innermost domain's
            // owning subsystem: `sva.recover.repair(subsys)` later selects
            // the pools to tear down by this mark (DESIGN.md §4.8).
            let subsys = self.recovery.last().map(|rc| rc.subsys).unwrap_or(0);
            let pool = self.pools.pool_mut(pid);
            let was_poisoned = pool.poisoned();
            let was_quarantined = pool.quarantined();
            poisoned = pool.note_violation(budget);
            if poisoned && subsys != 0 {
                pool.attribute_poison(subsys);
            }
            if !was_quarantined {
                self.stats.pools_quarantined += 1;
            }
            if poisoned && !was_poisoned {
                self.stats.pools_poisoned += 1;
            }
            // Scoped containment: the innermost domain owns this
            // quarantine and ends it when it pops.
            if let Some(rc) = self.recovery.last_mut() {
                if !rc.quarantined_pools.contains(&pid.0) {
                    rc.quarantined_pools.push(pid.0);
                }
            }
            self.trace(EventClass::Recovery, |vm, _| TraceEvent::PoolQuarantine {
                pool: pid.0,
                violations: vm.pools.pool(pid).violations(),
                poisoned,
            });
        }
        // The resume code captures the interrupted icontext *before* the
        // unwind resets `icid`, so the handler can still iret the faulting
        // user thread.
        let depth = self.recovery.len().saturating_sub(1);
        let code = ResumeCode {
            kind: check_kind_code(e.kind),
            poisoned,
            depth: depth as u32,
            pool: pool_id.map(|p| p.0),
            icid: self.thread.icid,
        }
        .encode();
        self.stats.violations_recovered += 1;
        self.resume(Resume::Unwind {
            code,
            pool: pool_id.map(|p| p.0),
            poisoned,
        })?;
        Ok(StepOut::Continue)
    }

    /// Pops the innermost recovery domain, ending the quarantine scope of
    /// every pool it quarantined: quarantines lift and scoped budgets
    /// reset (poisoned pools stay fenced off permanently).
    fn pop_domain(&mut self, forced: bool) -> Option<RecoveryCtx> {
        let rc = self.recovery.pop()?;
        self.stats.domains_popped += 1;
        for mp in &rc.quarantined_pools {
            if let Some(p) = self.pools.pool_get_mut(sva_rt::MetaPoolId(*mp)) {
                p.end_scope();
            }
        }
        self.trace(EventClass::Recovery, |vm, _| TraceEvent::DomainPop {
            subsys: rc.subsys,
            depth: vm.recovery.len() as u32,
            forced,
        });
        Some(rc)
    }

    /// Force-unwinds a wedged domain whose watchdog fuel ran out
    /// (DESIGN.md §4.5). A nested domain is popped — its quarantine scope
    /// ends and control lands at the next outer register point with a
    /// watchdog resume code (kind 7) — so a wedged syscall handler costs
    /// one syscall, not the machine. The outermost domain cannot be
    /// popped; it is refuelled and re-armed instead.
    fn watchdog_unwind(&mut self) -> Result<(), VmError> {
        // Capture at entry: the embedded snapshot still has the wedged
        // domain at fuel 0, so a replay re-runs this same force-unwind.
        if self.crash.enabled {
            self.capture_crash(
                crate::bundle::CrashReason::Watchdog,
                0,
                "domain watchdog force-unwind of a wedged recovery domain".to_string(),
            );
        }
        self.stats.watchdog_unwinds += 1;
        let icid = self.thread.icid;
        if self.recovery.len() > 1 {
            self.pop_domain(true);
        } else if let Some(rc) = self.recovery.last_mut() {
            rc.fuel = self.cfg.domain_fuel;
        }
        let depth = self.recovery.len().saturating_sub(1);
        let code = ResumeCode {
            kind: RESUME_KIND_WATCHDOG,
            poisoned: false,
            depth: depth as u32,
            pool: None,
            icid,
        }
        .encode();
        self.resume(Resume::Unwind {
            code,
            pool: None,
            poisoned: false,
        })
    }

    /// The one capture, behind `llva.save.integer` and
    /// `sva.recover.register` (`with_usp`).
    fn capture(&mut self, dst: Option<u32>, with_usp: bool) -> Result<Continuation, VmError> {
        let len = self.thread.ksp - KSTACK_BASE;
        let c = Continuation {
            kstack: self.mem.read_bytes(KSTACK_BASE, len, Mode::Kernel)?,
            frames: self.thread.frames.clone(),
            icid: self.thread.icid,
            asid: self.thread.asid,
            ksp: self.thread.ksp,
            usp: with_usp.then_some(self.thread.usp),
            dst,
        };
        self.stats.cycles += 32 + c.frames.len() as u64 * 8;
        Ok(c)
    }

    /// The one resume (the longjmp half), behind `llva.load.integer` and
    /// every recovery unwind. The result register gets 0 for a saved
    /// state and the resume code for an unwind, which also records the
    /// one `RecoverUnwind` event. A domain stays registered (re-armed).
    fn resume(&mut self, to: Resume) -> Result<(), VmError> {
        let (c, value) = match to {
            Resume::State(buf) => {
                let st = self
                    .int_state
                    .get(&buf)
                    .ok_or(VmError::BadStateBuffer(buf))?;
                (st, 0)
            }
            Resume::Unwind { code, .. } => {
                let rc = self.recovery.last().ok_or(VmError::NoRecoveryContext)?;
                (&rc.cont, code)
            }
        };
        let c = c.clone();
        self.stats.cycles += 32 + c.frames.len() as u64 * 8;
        self.stats.context_switches += 1;
        self.mem.write_bytes(KSTACK_BASE, &c.kstack, Mode::Kernel)?;
        self.mem.load_space(c.asid)?;
        self.sweep_stack_regs();
        // The continuation's stack objects were dropped when its frames
        // were discarded; bring them back so checks against them pass.
        for fr in &c.frames {
            for (mp, addr, len) in &fr.stack_regs {
                let _ = self
                    .pools
                    .pool_mut(sva_rt::MetaPoolId(*mp))
                    .reg_obj(*addr, *len);
            }
        }
        self.thread.frames = c.frames;
        self.thread.icid = c.icid;
        self.thread.asid = c.asid;
        self.thread.ksp = c.ksp;
        self.thread.usp = c.usp.unwrap_or(self.thread.usp);
        self.set_reg(c.dst, value)?;
        if let Resume::Unwind {
            code,
            pool,
            poisoned,
        } = to
        {
            self.trace(EventClass::Recovery, |vm, _| TraceEvent::RecoverUnwind {
                code,
                pool: pool.unwrap_or(u32::MAX),
                poisoned,
                depth: vm.recovery.len() as u32 - 1,
                subsys: vm.recovery.last().map_or(0, |rc| rc.subsys),
            });
        }
        Ok(())
    }

    /// Static name of the instruction the current frame is about to
    /// execute (tracing only; called before the step advances the pc).
    fn current_opcode(&self, code: &CodeImage) -> &'static str {
        let Some(fr) = self.thread.frames.last() else {
            return "?";
        };
        if self.cfg.kind.flat() {
            code.flat[fr.func as usize]
                .ops
                .get(fr.pc as usize)
                .map(FlatOp::opcode_name)
                .unwrap_or("?")
        } else {
            let f = &code.module.funcs[fr.func as usize];
            f.blocks
                .get(fr.block as usize)
                .and_then(|b| b.insts.get(fr.idx as usize))
                .map(|iid| inst_opcode_name(f.inst(*iid)))
                .unwrap_or("?")
        }
    }

    /// The flat engine's block executor (DESIGN.md §4.11). Runs ops of the
    /// current frame in one host loop until `budget` ops have run, an op
    /// has failed, or an op has run that can change what the boundary
    /// prologue looks at — the frame stack, the mode, the address space,
    /// the IRQ queue, `halted` or a deferred countdown. Those are calls
    /// (every intrinsic call included), returns, allocas and `unreachable`;
    /// the three pure checks are ops of their own and run inline. Each op
    /// is charged its instruction and dispatch cycle before it runs; `ran`
    /// counts the ops that ran, a failing one included, and a failing op
    /// leaves the pc past itself. A budget of 1 is a single step.
    fn exec_flat(
        &mut self,
        code: &CodeImage,
        budget: u64,
        ran: &mut u64,
    ) -> Result<StepOut, VmError> {
        macro_rules! top_frame {
            () => {
                self.thread
                    .frames
                    .last_mut()
                    .ok_or(VmError::Internal("step with empty frame stack"))?
            };
        }
        // The block never leaves this frame: only ops that end it push or
        // pop frames. Ops that lend the whole machine out re-borrow it.
        let mut fr = top_frame!();
        let ops = code.flat[fr.func as usize].ops.as_slice();
        // Resolve sources against the current frame.
        macro_rules! src {
            ($s:expr) => {
                match $s {
                    Src::Reg(r) => fr.regs[*r as usize],
                    Src::Imm(v) => *v,
                }
            };
        }
        // Address formation, shared by `gep` and the fused ops that
        // swallow one: an armed fault-injection skew shifts the next
        // kernel-mode GEPs.
        macro_rules! gep {
            ($base:expr, $const_off:expr, $dynamic:expr) => {{
                let mut addr = src!($base) as i64 + $const_off;
                for (s, scale, w) in $dynamic {
                    let idx = sext_w(src!(s), *w);
                    addr += idx.wrapping_mul(*scale as i64);
                }
                if self.gep_skew.is_some() && fr.mode == Mode::Kernel {
                    addr = skew(&mut self.gep_skew, addr);
                }
                addr
            }};
        }
        loop {
            let op = &ops[fr.pc as usize];
            fr.pc += 1;
            *ran += 1;
            self.stats.instructions += 1;
            self.stats.cycles += 1;
            match op {
                FlatOp::Bin { op, w, dst, a, b } => {
                    let (a, b) = (src!(a), src!(b));
                    fr.regs[*dst as usize] = eval_bin(*op, *w, a, b)?;
                }
                FlatOp::ICmp { pred, w, dst, a, b } => {
                    let (a, b) = (src!(a), src!(b));
                    fr.regs[*dst as usize] = eval_icmp(*pred, *w, a, b) as u64;
                }
                FlatOp::Select { dst, c, a, b } => {
                    let v = if src!(c) & 1 == 1 { src!(a) } else { src!(b) };
                    fr.regs[*dst as usize] = v;
                }
                FlatOp::Cast {
                    dst,
                    a,
                    op,
                    from_w,
                    to_w,
                } => {
                    fr.regs[*dst as usize] = eval_cast(*op, *from_w, *to_w, src!(a));
                }
                FlatOp::Gep {
                    dst,
                    base,
                    const_off,
                    dynamic,
                } => {
                    fr.regs[*dst as usize] = gep!(base, const_off, dynamic) as u64;
                }
                FlatOp::Load { dst, ptr, w } => {
                    fr.regs[*dst as usize] = self.mem.read_uint(src!(ptr), *w as u64, fr.mode)?;
                }
                FlatOp::Store { val, ptr, w } => {
                    let (v, addr) = (src!(val), src!(ptr));
                    self.mem.write_uint(addr, *w as u64, v, fr.mode)?;
                }
                FlatOp::Alloca {
                    dst,
                    elem,
                    count,
                    align,
                } => {
                    let count = src!(count);
                    let addr = self.alloca(*elem, count, *align)?;
                    top_frame!().regs[*dst as usize] = addr;
                    return Ok(StepOut::Continue);
                }
                // The three pure checks run inline, bracketed like every
                // other SVA-OS operation for a tracer that wants `Os`.
                FlatOp::LsCheck { mp, addr } => {
                    let addr = src!(addr);
                    self.os_span(Intrinsic::LsCheck, |vm| vm.pool_check(*mp, None, addr))?;
                    fr = top_frame!();
                }
                FlatOp::BoundsCheck { mp, src, addr } => {
                    let (src, addr) = (src!(src), src!(addr));
                    self.os_span(Intrinsic::BoundsCheck, |vm| {
                        vm.pool_check(*mp, Some(src), addr)
                    })?;
                    fr = top_frame!();
                }
                FlatOp::RangeCheck { start, addr, end } => {
                    let (start, addr, end) = (src!(start), src!(addr), src!(end));
                    self.os_span(Intrinsic::BoundsCheckRange, |vm| {
                        vm.range_check(start, addr, end)
                    })?;
                    fr = top_frame!();
                }
                FlatOp::Call { dst, callee, args } => {
                    // Arguments go through a scratch buffer owned by the
                    // machine instead of a fresh `Vec` per call.
                    let mut argv = std::mem::take(&mut self.argv_scratch);
                    argv.clear();
                    argv.extend(args.iter().map(|a| src!(a)));
                    let out = self.do_call(*callee, &argv, *dst);
                    self.argv_scratch = argv;
                    return out;
                }
                FlatOp::Phi { dst, incomings } => {
                    let pb = fr.prev_block;
                    let chosen = incomings.iter().find(|(b, _)| *b == pb);
                    fr.regs[*dst as usize] = match chosen {
                        Some((_, s)) => src!(s),
                        None => {
                            return Err(VmError::Unsupported("phi without matching pred".into()))
                        }
                    };
                }
                FlatOp::AtomicRmw {
                    op,
                    dst,
                    ptr,
                    val,
                    w,
                } => {
                    let (addr, v, w) = (src!(ptr), src!(val), *w as u64);
                    let old = self.mem.read_uint(addr, w, fr.mode)?;
                    let newv = match op {
                        AtomicOp::Add => old.wrapping_add(v),
                        AtomicOp::Sub => old.wrapping_sub(v),
                        AtomicOp::Xchg => v,
                    };
                    self.mem.write_uint(addr, w, newv, fr.mode)?;
                    fr.regs[*dst as usize] = old;
                }
                FlatOp::CmpXchg {
                    dst,
                    ptr,
                    expected,
                    new,
                    w,
                } => {
                    let (addr, e, n, w) = (src!(ptr), src!(expected), src!(new), *w as u64);
                    let old = self.mem.read_uint(addr, w, fr.mode)?;
                    if old == e {
                        self.mem.write_uint(addr, w, n, fr.mode)?;
                    }
                    fr.regs[*dst as usize] = old;
                }
                FlatOp::Fence => {}
                FlatOp::Br { pc, from } => {
                    fr.prev_block = *from;
                    fr.pc = *pc;
                }
                FlatOp::CondBr { c, tpc, fpc, from } => {
                    fr.prev_block = *from;
                    fr.pc = if src!(c) & 1 == 1 { *tpc } else { *fpc };
                }
                FlatOp::Switch {
                    v,
                    w,
                    dpc,
                    cases,
                    from,
                } => {
                    let x = sext_w(src!(v), *w);
                    fr.prev_block = *from;
                    fr.pc = cases
                        .iter()
                        .find(|(c, _)| *c == x)
                        .map(|(_, p)| *p)
                        .unwrap_or(*dpc);
                }
                FlatOp::Ret { val } => {
                    let v = val.as_ref().map(|s| src!(s)).unwrap_or(0);
                    return self.do_ret(v);
                }
                FlatOp::Unreachable => return Err(VmError::Unreachable),
                // ---- optimizing-tier ops (DESIGN.md §4.4) ----
                //
                // Each fused handler retires the pair's second instruction
                // in the same dispatch: `stats.instructions` gets the +1
                // the skipped dispatch would have charged (so instruction
                // counts are invariant under fusion) while `stats.cycles`
                // does not — that missing dispatch cycle is the
                // optimization. The extra instruction is charged at the
                // same point the unfused sequence would have charged it:
                // after the first op's work succeeds, before the second's
                // can fail.
                FlatOp::Nop => {
                    // Unreachable on legal paths: fused handlers skip their
                    // own placeholder and no branch targets one (the fusion
                    // pass never rewrites across a block boundary).
                    // Dispatching one anyway is a harmless no-op.
                }
                FlatOp::Mov { dst, src } => {
                    fr.regs[*dst as usize] = src!(src);
                }
                FlatOp::FusedGepLoad {
                    dst,
                    base,
                    const_off,
                    dynamic,
                    w,
                } => {
                    let addr = gep!(base, const_off, dynamic) as u64;
                    fr.pc += 1; // skip the placeholder in the load's old slot
                    self.stats.instructions += 1;
                    self.stats.fused_execs += 1;
                    fr.regs[*dst as usize] = self.mem.read_uint(addr, *w as u64, fr.mode)?;
                }
                FlatOp::FusedGepChkLoad {
                    dst,
                    base,
                    const_off,
                    dynamic,
                    w,
                    mp,
                    chk_src,
                } => {
                    let addr = gep!(base, const_off, dynamic) as u64;
                    let chk_src = chk_src.as_ref().map(|s| src!(s));
                    // Skip the placeholders in the check's and load's old
                    // slots.
                    fr.pc += 2;
                    // Each swallowed op is charged exactly where the
                    // unfused machine would have dispatched it, so
                    // instruction counts (and the cycles-saved ==
                    // fused_execs invariant) agree with opt 0 on *every*
                    // path — including a check failure, where the unfused
                    // load was never reached. The check itself is the
                    // standalone one against the skew-adjusted address.
                    self.stats.instructions += 1;
                    self.stats.fused_execs += 1;
                    self.pool_check(*mp, chk_src, addr)?;
                    fr = top_frame!();
                    self.stats.instructions += 1;
                    self.stats.fused_execs += 1;
                    fr.regs[*dst as usize] = self.mem.read_uint(addr, *w as u64, fr.mode)?;
                }
                FlatOp::FusedGepStore {
                    val,
                    base,
                    const_off,
                    dynamic,
                    w,
                } => {
                    let addr = gep!(base, const_off, dynamic) as u64;
                    let v = src!(val);
                    fr.pc += 1; // skip the placeholder in the store's old slot
                    self.stats.instructions += 1;
                    self.stats.fused_execs += 1;
                    self.mem.write_uint(addr, *w as u64, v, fr.mode)?;
                }
                FlatOp::FusedCmpBr {
                    pred,
                    w,
                    a,
                    b,
                    tpc,
                    fpc,
                    from,
                } => {
                    let (a, b) = (src!(a), src!(b));
                    fr.prev_block = *from;
                    fr.pc = if eval_icmp(*pred, *w, a, b) {
                        *tpc
                    } else {
                        *fpc
                    };
                    self.stats.instructions += 1;
                    self.stats.fused_execs += 1;
                }
                FlatOp::FusedBin2 {
                    op1,
                    w1,
                    a,
                    b,
                    op2,
                    w2,
                    c,
                    t_lhs,
                    dst,
                } => {
                    let (av, bv, cv) = (src!(a), src!(b), src!(c));
                    fr.pc += 1; // skip the placeholder in the second bin's slot
                    let t = eval_bin(*op1, *w1, av, bv)?;
                    self.stats.instructions += 1;
                    self.stats.fused_execs += 1;
                    fr.regs[*dst as usize] = if *t_lhs {
                        eval_bin(*op2, *w2, t, cv)?
                    } else {
                        eval_bin(*op2, *w2, cv, t)?
                    };
                }
            }
            if *ran == budget {
                return Ok(StepOut::Continue);
            }
        }
    }

    fn step_tree(&mut self, code: &CodeImage) -> Result<StepOut, VmError> {
        let fr = self
            .thread
            .frames
            .last_mut()
            .ok_or(VmError::Internal("step with empty frame stack"))?;
        let func = code
            .module
            .funcs
            .get(fr.func as usize)
            .ok_or(VmError::Internal("frame references bad function"))?;
        let block = func
            .blocks
            .get(fr.block as usize)
            .ok_or(VmError::Internal("frame references bad block"))?;
        let iid = *block
            .insts
            .get(fr.idx as usize)
            .ok_or(VmError::Internal("frame pc past end of block"))?;
        let inst = func
            .insts
            .get(iid.0 as usize)
            .ok_or(VmError::Internal("block references bad instruction"))?;
        let result = func
            .inst_results
            .get(iid.0 as usize)
            .copied()
            .flatten()
            .map(|v| v.0);
        fr.idx += 1;
        // Resolve an operand against the current frame/module.
        let m = &code.module;
        macro_rules! opd {
            ($o:expr) => {
                resolve_operand(m, &code.global_addr, fr, $o)
            };
        }
        match inst {
            Inst::Bin { op, lhs, rhs } => {
                let w = width_of(m, func, lhs);
                let (a, b) = (opd!(lhs), opd!(rhs));
                fr.regs[result.unwrap() as usize] = eval_bin(*op, w, a, b)?;
            }
            Inst::ICmp { pred, lhs, rhs } => {
                let w = width_of(m, func, lhs);
                let (a, b) = (opd!(lhs), opd!(rhs));
                fr.regs[result.unwrap() as usize] = eval_icmp(*pred, w, a, b) as u64;
            }
            Inst::Select { cond, tval, fval } => {
                let v = if opd!(cond) & 1 == 1 {
                    opd!(tval)
                } else {
                    opd!(fval)
                };
                fr.regs[result.unwrap() as usize] = v;
            }
            Inst::Cast { op, val, to } => {
                let from_w = width_of(m, func, val);
                let to_w = bit_width(m, *to);
                let v = opd!(val);
                fr.regs[result.unwrap() as usize] = eval_cast(*op, from_w, to_w, v);
            }
            Inst::Gep { base, indices } => {
                let bty = func.operand_type(base, m);
                let mut addr = opd!(base) as i64;
                let mut cur = m.types.pointee(bty);
                for (n, idx) in indices.iter().enumerate() {
                    let w = width_of(m, func, idx);
                    let iv = sext_w(opd!(idx), w);
                    if n == 0 {
                        addr += iv.wrapping_mul(m.types.size_of(cur) as i64);
                        continue;
                    }
                    match m.types.get(cur).clone() {
                        Type::Array(e, _) => {
                            addr += iv.wrapping_mul(m.types.size_of(e) as i64);
                            cur = e;
                        }
                        Type::Struct(_) => {
                            let off = m.types.field_offset(cur, iv as usize);
                            addr += off as i64;
                            cur = m.types.struct_fields(cur)[iv as usize];
                        }
                        _ => return Err(VmError::Unsupported("bad gep".into())),
                    }
                }
                if self.gep_skew.is_some() && fr.mode == Mode::Kernel {
                    addr = skew(&mut self.gep_skew, addr);
                }
                fr.regs[result.unwrap() as usize] = addr as u64;
            }
            Inst::Load { ptr } => {
                let pty = func.operand_type(ptr, m);
                let w = byte_width(m, m.types.pointee(pty));
                let addr = opd!(ptr);
                fr.regs[result.unwrap() as usize] = self.mem.read_uint(addr, w as u64, fr.mode)?;
            }
            Inst::Store { val, ptr } => {
                let vty = func.operand_type(val, m);
                let w = byte_width(m, vty);
                let (v, addr) = (opd!(val), opd!(ptr));
                self.mem.write_uint(addr, w as u64, v, fr.mode)?;
            }
            Inst::Alloca { ty, count } => {
                let layout = m.types.layout(*ty);
                let n = opd!(count);
                let addr = self.alloca(layout.size, n, layout.align)?;
                self.set_reg(result, addr)?;
            }
            Inst::Call { callee, args } => {
                let argv: Vec<u64> = args.iter().map(|a| opd!(a)).collect();
                let fc = match callee {
                    Callee::Direct(f) => FlatCallee::Direct(f.0),
                    Callee::External(e) => FlatCallee::External(e.0),
                    Callee::Indirect(o) => {
                        let v = opd!(o);
                        FlatCallee::Indirect(Src::Imm(v))
                    }
                    Callee::Intrinsic(i) => FlatCallee::Intrinsic(*i),
                };
                return self.do_call(fc, &argv, result);
            }
            Inst::Phi { incomings, .. } => {
                let pb = fr.prev_block;
                let mut chosen = None;
                for (b, v) in incomings {
                    if b.0 == pb {
                        chosen = Some(opd!(v));
                        break;
                    }
                }
                fr.regs[result.unwrap() as usize] =
                    chosen.ok_or(VmError::Unsupported("phi without matching pred".into()))?;
            }
            Inst::AtomicRmw { op, ptr, val } => {
                let pty = func.operand_type(ptr, m);
                let w = byte_width(m, m.types.pointee(pty));
                let (addr, v) = (opd!(ptr), opd!(val));
                let old = self.mem.read_uint(addr, w as u64, fr.mode)?;
                let newv = match op {
                    AtomicOp::Add => old.wrapping_add(v),
                    AtomicOp::Sub => old.wrapping_sub(v),
                    AtomicOp::Xchg => v,
                };
                self.mem.write_uint(addr, w as u64, newv, fr.mode)?;
                fr.regs[result.unwrap() as usize] = old;
            }
            Inst::CmpXchg { ptr, expected, new } => {
                let pty = func.operand_type(ptr, m);
                let w = byte_width(m, m.types.pointee(pty));
                let (addr, e, n) = (opd!(ptr), opd!(expected), opd!(new));
                let old = self.mem.read_uint(addr, w as u64, fr.mode)?;
                if old == e {
                    self.mem.write_uint(addr, w as u64, n, fr.mode)?;
                }
                fr.regs[result.unwrap() as usize] = old;
            }
            Inst::Fence => {}
            Inst::Br { target } => {
                fr.prev_block = fr.block;
                fr.block = target.0;
                fr.idx = 0;
            }
            Inst::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                let t = opd!(cond) & 1 == 1;
                fr.prev_block = fr.block;
                fr.block = if t { then_bb.0 } else { else_bb.0 };
                fr.idx = 0;
            }
            Inst::Switch {
                val,
                default,
                cases,
            } => {
                let w = width_of(m, func, val);
                let x = sext_w(opd!(val), w);
                let target = cases
                    .iter()
                    .find(|(c, _)| *c == x)
                    .map(|(_, b)| *b)
                    .unwrap_or(*default);
                fr.prev_block = fr.block;
                fr.block = target.0;
                fr.idx = 0;
            }
            Inst::Ret { val } => {
                let v = val.as_ref().map(|o| opd!(o)).unwrap_or(0);
                return self.do_ret(v);
            }
            Inst::Unreachable => return Err(VmError::Unreachable),
        }
        Ok(StepOut::Continue)
    }

    fn do_call(
        &mut self,
        callee: FlatCallee,
        args: &[u64],
        dst: Option<u32>,
    ) -> Result<StepOut, VmError> {
        let f = match callee {
            FlatCallee::Direct(f) => f,
            FlatCallee::Indirect(s) => {
                let addr = match s {
                    Src::Reg(r) => {
                        self.thread
                            .frames
                            .last()
                            .ok_or(VmError::Internal("indirect call with no frame"))?
                            .regs[r as usize]
                    }
                    Src::Imm(v) => v,
                };
                self.func_at(addr)?
            }
            FlatCallee::External(e) => {
                let name = self.code.module.externs[e as usize].name.clone();
                return Err(VmError::CallToExternal(name));
            }
            FlatCallee::Intrinsic(i) => {
                return self.os_span(i, |vm| vm.intrinsic_inner(i, args, dst))
            }
        };
        let mode = self.mode();
        let sp = match mode {
            Mode::Kernel => self.thread.ksp,
            Mode::User => self.thread.usp,
        };
        let frame = self.new_frame(f, args, args.len(), dst, mode, sp)?;
        self.thread.frames.push(frame);
        Ok(StepOut::Continue)
    }

    fn do_ret(&mut self, v: u64) -> Result<StepOut, VmError> {
        let fr = self
            .thread
            .frames
            .pop()
            .ok_or(VmError::Internal("return with empty frame stack"))?;
        // Auto-drop stack registrations (frame-pop sweep).
        for (mp, addr, _len) in &fr.stack_regs {
            let _ = self.pools.pool_mut(sva_rt::MetaPoolId(*mp)).drop_obj(*addr);
        }
        match fr.mode {
            Mode::Kernel => self.thread.ksp = fr.sp_saved,
            Mode::User => self.thread.usp = fr.sp_saved,
        }
        // A host `call` ends when its own frame returns; anything still
        // below it (frames a halted boot left suspended) stays suspended.
        if self.call_floor > 0 && self.thread.frames.len() <= self.call_floor {
            return Ok(StepOut::Exit(VmExit::Returned(v)));
        }
        if let Some(parent) = self.thread.frames.last_mut() {
            if let Some(d) = fr.ret_dst {
                parent.regs[d as usize] = v;
            }
            return Ok(StepOut::Continue);
        }
        // Outermost frame returned.
        if let Some(icid) = self.thread.icid {
            // A trap handler finished: resume the interrupted context with
            // the handler's return value as the syscall result.
            self.iret(icid as u64, v)?;
            return Ok(StepOut::Continue);
        }
        Ok(StepOut::Exit(VmExit::Returned(v)))
    }

    // --- SVA-OS + safety intrinsics ---------------------------------------

    /// Runs `f` as SVA-OS operation `i`: for a tracer that wants `Os`,
    /// enter/exit events bracket it and the exit carries the cycles it
    /// added beyond the base charge.
    fn os_span<R>(&mut self, i: Intrinsic, f: impl FnOnce(&mut Self) -> R) -> R {
        if !T::wants(EventClass::Os) {
            return f(self);
        }
        let enter = self.stats.cycles;
        self.tracer
            .record(enter, TraceEvent::OsEnter { op: i.name() });
        let result = f(self);
        let ts = self.stats.cycles;
        self.tracer.record(
            ts,
            TraceEvent::OsExit {
                op: i.name(),
                cost: ts - enter,
            },
        );
        result
    }

    /// Records the event `event` builds from the machine and the cycle
    /// count, if the tracer wants `class`; compiled out otherwise.
    #[inline(always)]
    fn trace(&mut self, class: EventClass, event: impl FnOnce(&Self, u64) -> TraceEvent) {
        if T::wants(class) {
            let ts = self.stats.cycles;
            let e = event(self, ts);
            self.tracer.record(ts, e);
        }
    }

    /// `pchk.bounds.range(start, derived, end)`: a bounds check against
    /// bounds the verifier knew statically. The flat engine runs it as
    /// [`FlatOp::RangeCheck`], the tree engine as an intrinsic call.
    #[inline(always)]
    fn range_check(&mut self, start: u64, derived: u64, end: u64) -> Result<(), VmError> {
        self.stats.cycles += 2;
        self.stats.range_checks += 1;
        let ok = derived >= start && derived <= end;
        if T::wants(EventClass::Check) {
            self.trace_check(Intrinsic::BoundsCheckRange.name(), None, 0, ok, 2);
        }
        if ok {
            Ok(())
        } else {
            Err(VmError::Safety(CheckError {
                kind: sva_rt::CheckKind::Bounds,
                pool: "static".into(),
                addr: derived,
                detail: format!("static object [{start:#x}, {end:#x})"),
            }))
        }
    }

    /// A metapool check against pool `mp`: `pchk.bounds(mp, src, addr)`
    /// with `src`, `pchk.lscheck(mp, addr)` without. Also the check a
    /// fused checked load swallows.
    #[inline(always)]
    fn pool_check(&mut self, mp: u32, src: Option<u64>, addr: u64) -> Result<(), VmError> {
        self.stats.cycles += CHECK_CYCLES;
        let before = self.lookups_of(mp);
        let pool = self.pools.pool_mut(sva_rt::MetaPoolId(mp));
        let (name, r) = match src {
            Some(src) => (Intrinsic::BoundsCheck.name(), pool.bounds_check(src, addr)),
            None => (Intrinsic::LsCheck.name(), pool.ls_check(addr)),
        };
        if T::wants(EventClass::Check) {
            self.trace_check(name, Some(mp), before, r.is_ok(), CHECK_CYCLES);
        }
        r.map_err(VmError::Safety)
    }

    fn intrinsic_inner(
        &mut self,
        i: Intrinsic,
        args: &[u64],
        dst: Option<u32>,
    ) -> Result<StepOut, VmError> {
        use Intrinsic::*;
        if i.privileged() && self.mode() == Mode::User {
            return Err(VmError::Privilege { addr: 0 });
        }
        let arg = |n: usize| args.get(n).copied().unwrap_or(0);
        match i {
            // ---- Table 1: processor state ----
            SaveInteger => {
                let st = self.capture(dst, false)?;
                self.int_state.insert(arg(0), st);
                self.set_reg(dst, 1)?;
            }
            LoadInteger => self.resume(Resume::State(arg(0)))?,
            SaveFp => {
                let always = arg(1) != 0;
                if always || self.thread.fp_dirty {
                    self.stats.cycles += 64;
                    self.thread.fp_dirty = false;
                }
            }
            LoadFp => {
                self.stats.cycles += 64;
                self.thread.fp_dirty = true;
            }
            // ---- Table 2: interrupt contexts ----
            IcontextGet => {
                let icid = self.thread.icid.map(|i| i as u64).unwrap_or(u64::MAX);
                self.set_reg(dst, icid)?;
            }
            IcontextSave => {
                let (icp, isp) = (arg(0), arg(1));
                let ic = self.icontext(icp)?.clone();
                self.stats.cycles += 16 + ic.frames.len() as u64 * 4;
                self.user_state.insert(isp, ic);
            }
            IcontextLoad => {
                let (icp, isp) = (arg(0), arg(1));
                let st = self
                    .user_state
                    .get(&isp)
                    .cloned()
                    .ok_or(VmError::BadStateBuffer(isp))?;
                let ic = self.icontext_mut(icp)?;
                let live = ic.live;
                *ic = st;
                ic.live = live;
            }
            IcontextCommit => {
                // Commit the full context to memory: modelled as the copy
                // cost of the register file.
                let icp = arg(0);
                let n = self.icontext(icp)?.frames.len() as u64;
                self.stats.cycles += 16 + n * 4;
            }
            IpushFunction => {
                let (icp, a0) = (arg(0), arg(2));
                let f = self.func_at(arg(1))?;
                // Build the synthetic frame against the *context's* user
                // stack, then push onto its frame stack.
                let usp = self.icontext(icp)?.usp;
                let frame = self.new_frame(f, &[a0], 0, None, Mode::User, usp)?;
                self.icontext_mut(icp)?.frames.push(frame);
            }
            WasPrivileged => {
                let icp = arg(0);
                let p = self.icontext(icp)?.privileged;
                self.set_reg(dst, p as u64)?;
            }
            IcontextNew => {
                let (isp, asid) = (arg(0), arg(1) as u32);
                let mut ic = if isp == 0 {
                    IContext {
                        usp: USER_END - USTACK_SIZE,
                        ..IContext::default()
                    }
                } else {
                    self.user_state
                        .get(&isp)
                        .cloned()
                        .ok_or(VmError::BadStateBuffer(isp))?
                };
                ic.asid = asid;
                ic.live = true;
                let icid = self.push_icontext(ic);
                self.set_reg(dst, icid as u64)?;
            }
            IcontextSetEntry => {
                let (icp, a0) = (arg(0), arg(2));
                let f = self.func_at(arg(1))?;
                let frame =
                    self.new_frame(f, &[a0], 0, None, Mode::User, USER_END - USTACK_SIZE)?;
                let ic = self.icontext_mut(icp)?;
                ic.frames = vec![frame];
                ic.usp = USER_END - USTACK_SIZE;
                ic.result_dst = None;
                ic.privileged = false;
            }
            // ---- OS support ----
            RegisterSyscall | RegisterInterrupt => {
                let f = self.func_at(arg(1))?;
                let table = match i {
                    RegisterSyscall => &mut self.syscalls,
                    _ => &mut self.interrupts,
                };
                table.insert(arg(0) as i64, f);
            }
            IoRead => {
                let v = self.io_read(arg(0));
                self.set_reg(dst, v)?;
            }
            IoWrite => {
                self.io_write(arg(0), arg(1));
            }
            MmuMap | MmuUnmap | MmuProtect => {
                // Mapping requests are mediated: the SVM validates that the
                // kernel never maps SVM-reserved frames (paper §3.4). Our
                // reserved range is the function-address window.
                let v = arg(1);
                if (crate::mem::FUNC_BASE..crate::mem::EXTERN_BASE).contains(&v) {
                    return Err(VmError::Privilege { addr: v });
                }
                self.stats.cycles += 8;
            }
            MmuNewSpace => {
                let asid = self.mem.new_space();
                self.stats.cycles += PAGE_SIZE / 64;
                self.set_reg(dst, asid as u64)?;
            }
            MmuLoadSpace => {
                let asid = arg(0) as u32;
                self.mem.load_space(asid)?;
                self.thread.asid = asid;
                self.stats.cycles += 16;
            }
            MmuCopyPage => {
                let (dst, va) = (arg(0) as u32, arg(1));
                self.mem.copy_page(dst, va)?;
                self.stats.cycles += PAGE_SIZE / 16;
            }
            MmuFreeSpace => {
                self.mem.free_space(arg(0) as u32)?;
            }
            Syscall => {
                return self.do_syscall(args, dst);
            }
            Iret => {
                self.iret(arg(0), arg(1))?;
            }
            CpuId => {
                let id = self.cpu_id as u64;
                self.set_reg(dst, id)?;
            }
            GetTimer => {
                let c = self.stats.cycles;
                self.set_reg(dst, c)?;
            }
            // ---- safety runtime ----
            PchkRegObj => {
                self.stats.cycles += REG_CYCLES;
                let (mp, addr, len) = (arg(0) as u32, arg(1), arg(2));
                if addr == 0 {
                    // Failed allocation: nothing to register.
                    return Ok(StepOut::Continue);
                }
                let stack = arg(3) != 0;
                self.pools
                    .pool_mut(sva_rt::MetaPoolId(mp))
                    .reg_obj(addr, len)
                    .map_err(VmError::Safety)?;
                self.trace(EventClass::Pool, |_, _| TraceEvent::PoolReg {
                    pool: mp,
                    addr,
                    len,
                });
                if stack {
                    self.thread
                        .frames
                        .last_mut()
                        .ok_or(VmError::Internal("stack registration with no frame"))?
                        .stack_regs
                        .push((mp, addr, len));
                }
            }
            PchkDropObj => {
                self.stats.cycles += REG_CYCLES;
                let (mp, addr) = (arg(0) as u32, arg(1));
                if addr == 0 {
                    return Ok(StepOut::Continue);
                }
                self.pools
                    .pool_mut(sva_rt::MetaPoolId(mp))
                    .drop_obj(addr)
                    .map_err(VmError::Safety)?;
                self.trace(EventClass::Pool, |_, _| TraceEvent::PoolDrop {
                    pool: mp,
                    addr,
                });
                // Remove from the frame sweep if it was a stack object.
                if let Some(fr) = self.thread.frames.last_mut() {
                    fr.stack_regs.retain(|(m, a, _)| !(*m == mp && *a == addr));
                }
                // Fault plans learn freed addresses here for later
                // use-after-free probes.
                if let Some(hook) = &self.cfg.fault_hook {
                    hook.on_pool_drop(mp, addr);
                }
            }
            BoundsCheckRange => self.range_check(arg(0), arg(1), arg(2))?,
            // No machine calls these: the flat engine runs them as check
            // ops, and `Vm::new` refuses them on the tree engine's kind,
            // which has no pools.
            BoundsCheck | LsCheck => return Err(VmError::Internal("pool check as a call")),
            GetBounds => {
                self.stats.cycles += CHECK_CYCLES;
                let (mp, p, sout, eout) = (arg(0) as u32, arg(1), arg(2), arg(3));
                let before = self.lookups_of(mp);
                let b = self.pools.pool_mut(sva_rt::MetaPoolId(mp)).get_bounds(p);
                if T::wants(EventClass::Check) {
                    self.trace_check(i.name(), Some(mp), before, b.is_some(), CHECK_CYCLES);
                }
                let (s, e) = b.unwrap_or((0, 0));
                let mode = self.mode();
                self.mem.write_uint(sout, 8, s, mode)?;
                self.mem.write_uint(eout, 8, e, mode)?;
            }
            FuncCheck => {
                self.stats.cycles += CHECK_CYCLES / 2;
                let (setid, target) = (arg(0) as u32, arg(1));
                let r = self.pools.func_check(setid, target);
                if T::wants(EventClass::Check) {
                    self.trace_check(i.name(), None, 0, r.is_ok(), CHECK_CYCLES / 2);
                }
                r.map_err(VmError::Safety)?;
            }
            PseudoAlloc => {
                // Returns a pointer to the manufactured range; registration
                // is a separate pchk.reg.obj inserted by the compiler.
                self.set_reg(dst, arg(0))?;
            }
            // ---- memory intrinsics ----
            MemCpy | MemMove => {
                let (d, s, n) = (arg(0), arg(1), arg(2));
                let mode = self.mode();
                self.mem.copy_bytes(d, s, n, mode)?;
                self.stats.cycles += n / 8;
            }
            MemSet => {
                let (d, b, n) = (arg(0), arg(1), arg(2));
                let mode = self.mode();
                self.mem.set_bytes(d, b as u8, n, mode)?;
                self.stats.cycles += n / 8;
            }
            // ---- violation recovery (DESIGN.md §4.3/§4.5) ----
            RecoverRegister => {
                // Pushes a nested recovery domain owned by subsystem
                // `arg(0)` (0 = unattributed, e.g. the boot domain).
                let subsys = arg(0);
                let cont = self.capture(dst, true)?;
                self.stats.domains_pushed += 1;
                self.recovery.push(RecoveryCtx {
                    cont,
                    subsys,
                    fuel: self.cfg.domain_fuel,
                    quarantined_pools: Vec::new(),
                });
                self.trace(EventClass::Recovery, |vm, _| TraceEvent::DomainPush {
                    subsys,
                    depth: vm.recovery.len() as u32 - 1,
                });
                self.set_reg(dst, 0)?;
            }
            RecoverUnwind => {
                // User-mode callers never reach this arm: the privilege
                // gate at the top of `intrinsic_inner` fires *before* any
                // context lookup, so an unprivileged unwind is a
                // `Privilege` error, not `NoRecoveryContext`.
                // Resume codes are nonzero by construction so the handler
                // can distinguish unwind from registration.
                self.resume(Resume::Unwind {
                    code: arg(0).max(1),
                    pool: None,
                    poisoned: false,
                })?;
            }
            RecoverRelease => {
                if args.is_empty() {
                    // Pop form (DESIGN.md §4.5): pop the innermost domain;
                    // every pool it quarantined ends its scope.
                    self.stats.cycles += 8;
                    let ok = self.pop_domain(false).is_some();
                    self.set_reg(dst, ok as u64)?;
                } else {
                    // Pool form (legacy, DESIGN.md §4.3): lift the
                    // quarantine on pool `arg(0)`; the domain stays.
                    let ok = self
                        .pools
                        .pool_get_mut(sva_rt::MetaPoolId(arg(0) as u32))
                        .map(|p| p.release_quarantine())
                        .unwrap_or(false);
                    self.set_reg(dst, ok as u64)?;
                }
            }
            RecoverRepair => {
                // Tear down and reinitialize every pool whose poison was
                // attributed to subsystem `arg(0)` (DESIGN.md §4.8). The
                // kernel's repair manager calls this when a degraded
                // subsystem's backoff delay expires; the returned count
                // tells it whether any pool actually needed the teardown.
                self.stats.cycles += 16;
                let subsys = arg(0);
                let repaired = self.pools.repair_poisoned_by(subsys);
                if !repaired.is_empty() {
                    self.stats.repairs += 1;
                    self.stats.pools_repaired += repaired.len() as u64;
                }
                self.trace(EventClass::Repair, |_, _| TraceEvent::Repair {
                    subsys,
                    pools: repaired.len() as u32,
                });
                self.set_reg(dst, repaired.len() as u64)?;
            }
            RecoverProbation => {
                // Probation bookkeeping (DESIGN.md §4.8): the kernel's
                // health machine reports its transition so VM stats and
                // the flight recorder see the same timeline the guest
                // does. Verdict 0 = probation passed (live again), 1 =
                // re-poisoned during probation (re-degraded, backoff
                // doubled), 2 = strike budget exhausted (retired).
                let subsys = arg(0);
                let verdict = arg(1);
                match verdict {
                    0 => self.stats.probation_passed += 1,
                    1 => self.stats.probation_failed += 1,
                    _ => self.stats.subsys_retired += 1,
                }
                self.trace(EventClass::Repair, |_, _| TraceEvent::Probation {
                    subsys,
                    verdict,
                });
                self.set_reg(dst, 0)?;
            }
            // ---- diagnostics ----
            Print => {
                let v = arg(0);
                if args.len() >= 2 {
                    // (ptr, len) string form.
                    let mode = self.mode();
                    let bytes = self.mem.read_bytes(v, arg(1), mode)?;
                    self.console.extend_from_slice(&bytes);
                } else {
                    self.console.extend_from_slice(format!("{v}\n").as_bytes());
                }
            }
            Abort => {
                self.halted = Some(arg(0));
            }
        }
        Ok(StepOut::Continue)
    }

    /// Lookup count of pool `mp` (0 when tracing is off — the value is
    /// only used to detect whether a check performed an object lookup).
    fn lookups_of(&self, mp: u32) -> u64 {
        if T::wants(EventClass::Check) {
            self.pools.pool(sva_rt::MetaPoolId(mp)).stats().lookups()
        } else {
            0
        }
    }

    /// Records a `Check` event, attributing a check of pool `mp` to the
    /// lookup layer that answered — or [`LookupLayer::None`] when the
    /// check decided without an object lookup (reduced checks, and the
    /// checks of no pool).
    fn trace_check(
        &mut self,
        check: &'static str,
        mp: Option<u32>,
        lookups_before: u64,
        passed: bool,
        cost: u64,
    ) {
        let layer = match mp.map(|mp| self.pools.pool(sva_rt::MetaPoolId(mp))) {
            Some(pool) if pool.stats().lookups() > lookups_before => pool.last_lookup_layer(),
            _ => LookupLayer::None,
        };
        self.tracer.record(
            self.stats.cycles,
            TraceEvent::Check {
                check,
                pool: mp.unwrap_or(u32::MAX),
                layer,
                passed,
                cost,
            },
        );
    }

    fn push_icontext(&mut self, ic: IContext) -> u32 {
        // Reuse dead slots.
        for (i, slot) in self.icontexts.iter_mut().enumerate() {
            if !slot.live {
                *slot = ic;
                return i as u32;
            }
        }
        self.icontexts.push(ic);
        (self.icontexts.len() - 1) as u32
    }

    fn icontext(&self, icp: u64) -> Result<&IContext, VmError> {
        self.icontexts
            .get(icp as usize)
            .filter(|c| c.live)
            .ok_or(VmError::BadIContext(icp))
    }

    fn icontext_mut(&mut self, icp: u64) -> Result<&mut IContext, VmError> {
        self.icontexts
            .get_mut(icp as usize)
            .filter(|c| c.live)
            .ok_or(VmError::BadIContext(icp))
    }

    /// Delivers the front pending interrupt: trap ceremony, then the
    /// registered handler with the vector as its argument. Returns the
    /// popped vector (for trace attribution, even when masked).
    fn deliver_interrupt(&mut self) -> Result<i64, VmError> {
        let Some(vec) = self.pending_irq.pop_front() else {
            return Ok(-1);
        };
        let Some(&handler) = self.interrupts.get(&vec) else {
            // Unhandled vectors are dropped (masked), like a PIC with no
            // registered line.
            return Ok(vec);
        };
        self.stats.interrupts += 1;
        self.trap(handler, &[vec as u64], None)?;
        Ok(vec)
    }

    /// The one trap entry (paper §3.3), behind a user-mode `sva.syscall`
    /// (`syscall`: its number and result register) and IRQ delivery: the
    /// user computation moves into an interrupt context and `handler`
    /// starts on an empty kernel stack. The SVA-OS entry path saves a
    /// *subset* of control state; the full interface costs a little more
    /// than the hand-written native path.
    fn trap(
        &mut self,
        handler: u32,
        args: &[u64],
        syscall: Option<(i64, Option<u32>)>,
    ) -> Result<(), VmError> {
        let frame = self.new_frame(handler, args, args.len(), None, Mode::Kernel, KSTACK_BASE)?;
        let fast = self.cfg.kind.fast_os();
        self.stats.cycles += if fast { 24 } else { 40 };
        let trace_sys = match syscall {
            Some((num, _)) if T::wants(EventClass::Syscall) => {
                let ts = self.stats.cycles;
                self.tracer.record(ts, TraceEvent::SyscallEnter { num });
                Some((num, ts))
            }
            _ => None,
        };
        let frames = std::mem::take(&mut self.thread.frames);
        let ic = IContext {
            result_frame: frames.len().saturating_sub(1),
            frames,
            usp: self.thread.usp,
            asid: self.thread.asid,
            result_dst: syscall.and_then(|(_, dst)| dst),
            live: true,
            trace_sys,
            ..IContext::default()
        };
        let icid = self.push_icontext(ic);
        self.thread.icid = Some(icid);
        self.thread.ksp = KSTACK_BASE;
        self.thread.frames.push(frame);
        Ok(())
    }

    fn do_syscall(&mut self, args: &[u64], dst: Option<u32>) -> Result<StepOut, VmError> {
        let num = args.first().copied().unwrap_or(0) as i64;
        let handler = *self
            .syscalls
            .get(&num)
            .ok_or(VmError::UnknownSyscall(num))?;
        let hargs = args.get(1..).unwrap_or_default();
        if self.mode() == Mode::Kernel {
            // Internal system call: analyzed as a direct call (§4.8);
            // executed as one too — no privilege transition needed.
            self.stats.cycles += 8;
            let frame = self.new_frame(
                handler,
                hargs,
                hargs.len(),
                dst,
                Mode::Kernel,
                self.thread.ksp,
            )?;
            self.thread.frames.push(frame);
            return Ok(StepOut::Continue);
        }
        self.stats.traps += 1;
        // Fault injection observes every user→kernel trap; the returned
        // action perturbs the machine around handler entry.
        let action = if let Some(hook) = self.cfg.fault_hook.clone() {
            let info = TrapInfo {
                trap_index: self.trap_count,
                syscall: num,
                args: hargs,
            };
            Some(hook.on_trap(&info))
        } else {
            None
        };
        self.trap_count += 1;
        let mut mutated;
        let hargs = match &action {
            Some(a) if !a.mutate_args.is_empty() => {
                mutated = hargs.to_vec();
                for (idx, v) in &a.mutate_args {
                    if let Some(slot) = mutated.get_mut(*idx) {
                        *slot = *v;
                    }
                }
                &mutated[..]
            }
            _ => hargs,
        };
        self.trap(handler, hargs, Some((num, dst)))?;
        // Now in kernel mode: apply the rest of the action. A failing
        // stale probe takes the normal safety-violation path out of this
        // step.
        if let Some(a) = action {
            self.apply_fault_action(a)?;
        }
        Ok(StepOut::Continue)
    }

    /// Applies a [`FaultAction`] after handler entry (kernel mode).
    fn apply_fault_action(&mut self, a: FaultAction) -> Result<(), VmError> {
        if let Some((count, delta)) = a.gep_skew {
            if count > 0 {
                if a.probe_defer > 0 {
                    // Deferred form: arm the skew `probe_defer` kernel-mode
                    // instructions into the handler body (see the run
                    // loop), inside any recovery domain the handler pushes.
                    self.pending_skew = Some((a.probe_defer, count, delta));
                } else {
                    self.gep_skew = Some((count, delta));
                }
            }
        }
        if let Some((pool, seed)) = a.corrupt_pool {
            if let Some(p) = self.pools.pool_get_mut(sva_rt::MetaPoolId(pool)) {
                p.inject_corrupt_metadata(seed);
            }
        }
        if let Some((pool, n)) = a.fail_allocs {
            if let Some(p) = self.pools.pool_get_mut(sva_rt::MetaPoolId(pool)) {
                p.inject_reg_failures(n);
            }
        }
        for _ in 0..a.raise_irqs {
            self.pending_irq.push_back(0);
        }
        if let Some((pool, addr)) = a.probe_stale {
            if a.probe_defer > 0 {
                // Deferred form: the dereference is modelled `probe_defer`
                // kernel-mode instructions into the handler body (see the
                // run loop), inside any recovery domain the handler pushes.
                self.pending_probe = Some((a.probe_defer, pool, addr));
            } else {
                self.probe(pool, addr)?;
            }
        }
        Ok(())
    }

    /// A fault plan's stale probe: a kernel dereference of `addr` through
    /// the load/store check of `pool` (a pool the machine lacks passes).
    fn probe(&mut self, pool: u32, addr: u64) -> Result<(), VmError> {
        self.stats.cycles += CHECK_CYCLES;
        match self.pools.pool_get_mut(sva_rt::MetaPoolId(pool)) {
            Some(p) => p.ls_check(addr).map_err(VmError::Safety),
            None => Ok(()),
        }
    }

    /// Drops the metapool registrations of every stack object owned by the
    /// current frame stack. Called when frames are *discarded* rather than
    /// popped (iret, load.integer): without this, the next kernel entry
    /// re-allocates the same kernel-stack addresses and trips the
    /// overlapping-registration check.
    fn sweep_stack_regs(&mut self) {
        for fr in &self.thread.frames {
            for (mp, addr, _len) in &fr.stack_regs {
                let _ = self.pools.pool_mut(sva_rt::MetaPoolId(*mp)).drop_obj(*addr);
            }
        }
    }

    fn iret(&mut self, icp: u64, retval: u64) -> Result<(), VmError> {
        let fast = self.cfg.kind.fast_os();
        self.stats.cycles += if fast { 16 } else { 24 };
        // Deferred faults model a dereference *inside the handler that
        // trapped*; a handler that returns before the countdown expires
        // wastes the injection slot rather than leaking it into the next
        // handler's prologue (outside its recovery domain).
        self.pending_probe = None;
        self.pending_skew = None;
        let ic = self.icontext_mut(icp)?;
        ic.live = false;
        let mut frames = std::mem::take(&mut ic.frames);
        let usp = ic.usp;
        let asid = ic.asid;
        let result_dst = ic.result_dst;
        let result_frame = ic.result_frame;
        let trace_sys = ic.trace_sys.take();
        if let Some(d) = result_dst {
            if let Some(fr) = frames.get_mut(result_frame) {
                fr.regs[d as usize] = retval;
            }
        }
        self.mem.load_space(asid)?;
        self.sweep_stack_regs();
        self.thread.frames = frames;
        self.thread.usp = usp;
        self.thread.asid = asid;
        self.thread.icid = None;
        self.thread.ksp = KSTACK_BASE;
        // A span's start comes from a snapshot image or, in a vCPU fork
        // whose counters start at 0, from the template's clock.
        if let Some((num, enter)) = trace_sys {
            self.trace(EventClass::Syscall, |_, ts| TraceEvent::SyscallExit {
                num,
                cost: ts.saturating_sub(enter),
            });
        }
        Ok(())
    }

    // --- devices -----------------------------------------------------------

    fn io_read(&mut self, port: u64) -> u64 {
        match port {
            PORT_TIMER => self.stats.cycles,
            _ => 0,
        }
    }

    fn io_write(&mut self, port: u64, v: u64) {
        if port == PORT_CONSOLE {
            self.console.push(v as u8);
        }
    }
}

/// Virtual-cycle charge of one metapool check (a hot splay lookup on the
/// paper's hardware; calibrates the cycle model against Table 7/8 shapes).
pub const CHECK_CYCLES: u64 = 16;
/// Virtual-cycle charge of an object registration/drop (splay insert or
/// delete).
pub const REG_CYCLES: u64 = 24;

/// Console output port.
pub const PORT_CONSOLE: u64 = 0x3f8;
/// Virtual timer port (returns cycles).
pub const PORT_TIMER: u64 = 0x40;

enum StepOut {
    Continue,
    Exit(VmExit),
}

/// Where [`Vm::resume`] takes the thread: the integer state saved at a
/// buffer, or the innermost domain with a resume code (and, for a
/// violation, its pool and whether that poisoned it).
#[derive(Clone, Copy)]
enum Resume {
    State(u64),
    Unwind {
        code: u64,
        pool: Option<u32>,
        poisoned: bool,
    },
}

// ---------------------------------------------------------------------------
// Shared evaluation helpers.
// ---------------------------------------------------------------------------

#[inline]
fn mask_w(v: u64, w: u8) -> u64 {
    match w {
        64 => v,
        0 => 0,
        w => v & ((1u64 << w) - 1),
    }
}

#[inline]
fn sext_w(v: u64, w: u8) -> i64 {
    match w {
        64 => v as i64,
        0 => 0,
        w => {
            let shift = 64 - w as u32;
            ((v << shift) as i64) >> shift
        }
    }
}

#[inline(always)]
fn eval_bin(op: BinOp, w: u8, a: u64, b: u64) -> Result<u64, VmError> {
    if op.is_float() {
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        let r = match op {
            BinOp::FAdd => x + y,
            BinOp::FSub => x - y,
            BinOp::FMul => x * y,
            BinOp::FDiv => x / y,
            _ => unreachable!(),
        };
        return Ok(r.to_bits());
    }
    let (ua, ub) = (mask_w(a, w), mask_w(b, w));
    let (sa, sb) = (sext_w(a, w), sext_w(b, w));
    let r = match op {
        BinOp::Add => ua.wrapping_add(ub),
        BinOp::Sub => ua.wrapping_sub(ub),
        BinOp::Mul => ua.wrapping_mul(ub),
        BinOp::UDiv => {
            if ub == 0 {
                return Err(VmError::DivZero);
            }
            ua / ub
        }
        BinOp::SDiv => {
            if sb == 0 {
                return Err(VmError::DivZero);
            }
            sa.wrapping_div(sb) as u64
        }
        BinOp::URem => {
            if ub == 0 {
                return Err(VmError::DivZero);
            }
            ua % ub
        }
        BinOp::SRem => {
            if sb == 0 {
                return Err(VmError::DivZero);
            }
            sa.wrapping_rem(sb) as u64
        }
        BinOp::And => ua & ub,
        BinOp::Or => ua | ub,
        BinOp::Xor => ua ^ ub,
        BinOp::Shl => ua.wrapping_shl(ub as u32 % w.max(1) as u32),
        BinOp::LShr => ua.wrapping_shr(ub as u32 % w.max(1) as u32),
        BinOp::AShr => (sa >> (ub as u32 % w.max(1) as u32)) as u64,
        _ => unreachable!(),
    };
    Ok(mask_w(r, w))
}

#[inline]
fn eval_icmp(pred: IPred, w: u8, a: u64, b: u64) -> bool {
    let (ua, ub) = (mask_w(a, w), mask_w(b, w));
    let (sa, sb) = (sext_w(a, w), sext_w(b, w));
    match pred {
        IPred::Eq => ua == ub,
        IPred::Ne => ua != ub,
        IPred::ULt => ua < ub,
        IPred::ULe => ua <= ub,
        IPred::UGt => ua > ub,
        IPred::UGe => ua >= ub,
        IPred::SLt => sa < sb,
        IPred::SLe => sa <= sb,
        IPred::SGt => sa > sb,
        IPred::SGe => sa >= sb,
    }
}

#[inline]
fn eval_cast(op: CastOp, from_w: u8, to_w: u8, v: u64) -> u64 {
    match op {
        CastOp::Bitcast | CastOp::PtrToInt | CastOp::IntToPtr => v,
        CastOp::Trunc => mask_w(v, to_w),
        CastOp::ZExt => mask_w(v, from_w),
        CastOp::SExt => mask_w(sext_w(v, from_w) as u64, to_w),
        CastOp::SiToFp => (sext_w(v, from_w) as f64).to_bits(),
        CastOp::FpToSi => mask_w(f64::from_bits(v) as i64 as u64, to_w),
    }
}

/// Bit width of a type for arithmetic (pointers and `f64` behave as 64).
fn bit_width(m: &Module, t: TypeId) -> u8 {
    match m.types.get(t) {
        Type::Int(w) => *w,
        _ => 64,
    }
}

/// Byte width of a type for memory accesses (`i1` occupies one byte).
fn byte_width(m: &Module, t: TypeId) -> u8 {
    match m.types.get(t) {
        Type::Int(1) | Type::Int(8) => 1,
        Type::Int(16) => 2,
        Type::Int(32) => 4,
        _ => 8,
    }
}

/// Arithmetic width of an operand.
fn width_of(m: &Module, f: &sva_ir::Function, op: &Operand) -> u8 {
    let t = f.operand_type(op, m);
    match m.types.get(t) {
        Type::Int(w) => *w,
        _ => 64,
    }
}

fn resolve_operand(m: &Module, global_addr: &[u64], fr: &Frame, op: &Operand) -> u64 {
    let _ = m;
    match op {
        // Out-of-range ids read as 0 (a guaranteed-unmapped address), so a
        // corrupt module faults deterministically instead of crashing the
        // host. The verifier rejects such modules up front.
        Operand::Value(v) => fr.regs.get(v.0 as usize).copied().unwrap_or(0),
        Operand::ConstInt(v, _) => *v as u64,
        Operand::ConstF64(bits) => *bits,
        Operand::Null(_) => 0,
        Operand::Global(g) => global_addr.get(g.0 as usize).copied().unwrap_or(0),
        Operand::Func(f) => func_addr(f.0),
        Operand::Extern(e) => extern_addr(e.0),
        Operand::Undef(_) => 0,
    }
}

/// Applies an armed fault-injection GEP skew to a kernel-mode address,
/// disarming it after its last count.
#[inline(always)]
fn skew(armed: &mut Option<(u32, i64)>, addr: i64) -> i64 {
    let Some((n, delta)) = *armed else {
        return addr;
    };
    *armed = (n > 1).then(|| (n - 1, delta));
    addr.wrapping_add(delta)
}

fn round_up(v: u64, a: u64) -> u64 {
    v.div_ceil(a) * a
}

// ---------------------------------------------------------------------------
// Load-time operand checks.
// ---------------------------------------------------------------------------

/// The operand count of an intrinsic whose first operand names a metapool
/// (`true`), and of `pchk.bounds.range`, whose operands the flat engine
/// decodes inline (`false`); `None` for every other intrinsic.
fn pool_operands(i: Intrinsic) -> Option<(usize, bool)> {
    match i {
        Intrinsic::PchkRegObj | Intrinsic::BoundsCheck => Some((3, true)),
        Intrinsic::PchkDropObj | Intrinsic::LsCheck => Some((2, true)),
        Intrinsic::GetBounds => Some((4, true)),
        Intrinsic::BoundsCheckRange => Some((3, false)),
        _ => None,
    }
}

/// Refuses a module in which a pool-taking intrinsic call lacks operands
/// or names none of the metapools of `pa` (the annotations the machine
/// runs, `None` without checks) with a constant, or in which a global's
/// pool annotation names none: the guest must not pick an index into the
/// host's metapool table.
fn check_pool_operands(module: &Module, pa: Option<&PoolAnnotations>) -> Result<(), VmError> {
    let pools = pa.map_or(0, |pa| pa.metapools.len());
    for f in &module.funcs {
        for iid in f.blocks.iter().flat_map(|b| &b.insts) {
            let Some(Inst::Call {
                callee: Callee::Intrinsic(i),
                args,
            }) = f.insts.get(iid.0 as usize)
            else {
                continue;
            };
            let Some((arity, pooled)) = pool_operands(*i) else {
                continue;
            };
            let names_pool = matches!(args.first(),
                Some(Operand::ConstInt(mp, _)) if (*mp as u64) < pools as u64);
            if args.len() < arity || (pooled && !names_pool) {
                return Err(VmError::Unsupported(format!(
                    "@{}: `{}` wants {arity} operands{}",
                    f.name,
                    i.name(),
                    if pooled {
                        format!(", the first a constant naming one of {pools} metapools")
                    } else {
                        String::new()
                    }
                )));
            }
        }
    }
    let global_pools = pa.map_or(&[][..], |pa| &pa.global_pools);
    for (gi, mp) in global_pools.iter().enumerate() {
        if let Some(mp) = *mp {
            if mp as usize >= pools || gi >= module.globals.len() {
                return Err(VmError::Unsupported(format!(
                    "global {gi}: pool annotation names metapool {mp} of {pools}"
                )));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Translation (bytecode → flat "native" code).
// ---------------------------------------------------------------------------

fn translate(m: &Module, f: &sva_ir::Function, global_addr: &[u64]) -> Result<FlatFunc, VmError> {
    let mut ops: Vec<FlatOp> = Vec::with_capacity(f.insts.len());
    // First pass: compute the pc of each block.
    let mut block_pc = Vec::with_capacity(f.blocks.len());
    {
        let mut pc = 0u32;
        for b in &f.blocks {
            block_pc.push(pc);
            pc += b.insts.len() as u32;
        }
    }
    for (bi, b) in f.blocks.iter().enumerate() {
        for &iid in &b.insts {
            let inst = f
                .insts
                .get(iid.0 as usize)
                .ok_or(VmError::Internal("block references bad instruction"))?;
            let dst = f
                .inst_results
                .get(iid.0 as usize)
                .copied()
                .flatten()
                .map(|v| v.0);
            let op = translate_inst(m, f, inst, dst, bi as u32, &block_pc, global_addr)?;
            ops.push(op);
        }
    }
    Ok(FlatFunc { ops })
}

fn t_src(m: &Module, g: &[u64], op: &Operand) -> Src {
    let _ = m;
    match op {
        Operand::Value(v) => Src::Reg(v.0),
        Operand::ConstInt(v, _) => Src::Imm(*v as u64),
        Operand::ConstF64(bits) => Src::Imm(*bits),
        Operand::Null(_) => Src::Imm(0),
        Operand::Global(gid) => Src::Imm(g.get(gid.0 as usize).copied().unwrap_or(0)),
        Operand::Func(fid) => Src::Imm(func_addr(fid.0)),
        Operand::Extern(e) => Src::Imm(extern_addr(e.0)),
        Operand::Undef(_) => Src::Imm(0),
    }
}

fn translate_inst(
    m: &Module,
    f: &sva_ir::Function,
    inst: &Inst,
    dst: Option<u32>,
    from_block: u32,
    block_pc: &[u32],
    global_addr: &[u64],
) -> Result<FlatOp, VmError> {
    let s = |op: &Operand| t_src(m, global_addr, op);
    let ww = |op: &Operand| width_of(m, f, op);
    Ok(match inst {
        Inst::Bin { op, lhs, rhs } => FlatOp::Bin {
            op: *op,
            w: ww(lhs),
            dst: dst.unwrap(),
            a: s(lhs),
            b: s(rhs),
        },
        Inst::ICmp { pred, lhs, rhs } => FlatOp::ICmp {
            pred: *pred,
            w: ww(lhs),
            dst: dst.unwrap(),
            a: s(lhs),
            b: s(rhs),
        },
        Inst::Select { cond, tval, fval } => FlatOp::Select {
            dst: dst.unwrap(),
            c: s(cond),
            a: s(tval),
            b: s(fval),
        },
        Inst::Cast { op, val, to } => FlatOp::Cast {
            dst: dst.unwrap(),
            a: s(val),
            op: *op,
            from_w: ww(val),
            to_w: bit_width(m, *to),
        },
        Inst::Gep { base, indices } => {
            let bty = f.operand_type(base, m);
            let mut cur = m.types.pointee(bty);
            let mut const_off: i64 = 0;
            let mut dynamic = Vec::new();
            for (n, idx) in indices.iter().enumerate() {
                if n == 0 {
                    let scale = m.types.size_of(cur);
                    match idx {
                        Operand::ConstInt(c, _) => const_off += c * scale as i64,
                        _ => dynamic.push((s(idx), scale, ww(idx))),
                    }
                    continue;
                }
                match m.types.get(cur).clone() {
                    Type::Array(e, _) => {
                        let scale = m.types.size_of(e);
                        match idx {
                            Operand::ConstInt(c, _) => const_off += c * scale as i64,
                            _ => dynamic.push((s(idx), scale, ww(idx))),
                        }
                        cur = e;
                    }
                    Type::Struct(_) => {
                        let c = match idx {
                            Operand::ConstInt(c, _) => *c as usize,
                            _ => return Err(VmError::Unsupported("dyn struct index".into())),
                        };
                        const_off += m.types.field_offset(cur, c) as i64;
                        cur = m.types.struct_fields(cur)[c];
                    }
                    _ => return Err(VmError::Unsupported("bad gep".into())),
                }
            }
            FlatOp::Gep {
                dst: dst.unwrap(),
                base: s(base),
                const_off,
                dynamic,
            }
        }
        Inst::Load { ptr } => {
            let pty = f.operand_type(ptr, m);
            FlatOp::Load {
                dst: dst.unwrap(),
                ptr: s(ptr),
                w: byte_width(m, m.types.pointee(pty)),
            }
        }
        Inst::Store { val, ptr } => {
            let vty = f.operand_type(val, m);
            FlatOp::Store {
                val: s(val),
                ptr: s(ptr),
                w: byte_width(m, vty),
            }
        }
        Inst::Alloca { ty, count } => {
            let layout = m.types.layout(*ty);
            FlatOp::Alloca {
                dst: dst.unwrap(),
                elem: layout.size,
                count: s(count),
                align: layout.align,
            }
        }
        Inst::Call {
            callee:
                Callee::Intrinsic(
                    i @ (Intrinsic::LsCheck | Intrinsic::BoundsCheck | Intrinsic::BoundsCheckRange),
                ),
            args,
        } => {
            // `check_pool_operands` vouched for the operand count and the
            // constant pool at load.
            let arg = |n: usize| {
                args.get(n)
                    .map(&s)
                    .ok_or(VmError::Internal("check call without its operands"))
            };
            let mp = || match arg(0)? {
                Src::Imm(mp) => Ok(mp as u32),
                Src::Reg(_) => Err(VmError::Internal("check call without a constant pool")),
            };
            match i {
                Intrinsic::LsCheck => FlatOp::LsCheck {
                    mp: mp()?,
                    addr: arg(1)?,
                },
                Intrinsic::BoundsCheck => FlatOp::BoundsCheck {
                    mp: mp()?,
                    src: arg(1)?,
                    addr: arg(2)?,
                },
                _ => FlatOp::RangeCheck {
                    start: arg(0)?,
                    addr: arg(1)?,
                    end: arg(2)?,
                },
            }
        }
        Inst::Call { callee, args } => {
            let fc = match callee {
                Callee::Direct(fid) => FlatCallee::Direct(fid.0),
                Callee::External(e) => FlatCallee::External(e.0),
                Callee::Indirect(o) => FlatCallee::Indirect(s(o)),
                Callee::Intrinsic(i) => FlatCallee::Intrinsic(*i),
            };
            FlatOp::Call {
                dst,
                callee: fc,
                args: args.iter().map(&s).collect(),
            }
        }
        Inst::Phi { incomings, .. } => FlatOp::Phi {
            dst: dst.unwrap(),
            incomings: incomings.iter().map(|(b, v)| (b.0, s(v))).collect(),
        },
        Inst::AtomicRmw { op, ptr, val } => {
            let pty = f.operand_type(ptr, m);
            FlatOp::AtomicRmw {
                op: *op,
                dst: dst.unwrap(),
                ptr: s(ptr),
                val: s(val),
                w: byte_width(m, m.types.pointee(pty)),
            }
        }
        Inst::CmpXchg { ptr, expected, new } => {
            let pty = f.operand_type(ptr, m);
            FlatOp::CmpXchg {
                dst: dst.unwrap(),
                ptr: s(ptr),
                expected: s(expected),
                new: s(new),
                w: byte_width(m, m.types.pointee(pty)),
            }
        }
        Inst::Fence => FlatOp::Fence,
        Inst::Br { target } => FlatOp::Br {
            pc: block_pc[target.0 as usize],
            from: from_block,
        },
        Inst::CondBr {
            cond,
            then_bb,
            else_bb,
        } => FlatOp::CondBr {
            c: s(cond),
            tpc: block_pc[then_bb.0 as usize],
            fpc: block_pc[else_bb.0 as usize],
            from: from_block,
        },
        Inst::Switch {
            val,
            default,
            cases,
        } => FlatOp::Switch {
            v: s(val),
            w: ww(val),
            dpc: block_pc[default.0 as usize],
            cases: cases
                .iter()
                .map(|(c, b)| (*c, block_pc[b.0 as usize]))
                .collect(),
            from: from_block,
        },
        Inst::Ret { val } => FlatOp::Ret {
            val: val.as_ref().map(s),
        },
        Inst::Unreachable => FlatOp::Unreachable,
    })
}
