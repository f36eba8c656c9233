//! The bytecode verifier — the only trusted piece of the pipeline (§5).
//!
//! The verifier first runs the base structural/SSA/type verifier from
//! `sva-ir`, then **type-checks the metapool annotations** with purely
//! intraprocedural rules ("the typing rules only require local
//! information"):
//!
//! * indexing (`getelementptr`) and pointer casts preserve the metapool
//!   (indexing additionally lands in the annotated field cell);
//! * a load through cell `c` of pool `M` yields a pointer into
//!   `M.points_to[c]`;
//! * a store of a pointer through cell `c` of pool `M` requires the
//!   value's pool to be `M.points_to[c]`;
//! * φ/select merge only pointers of one metapool;
//! * call arguments and returns match the callee's annotated pools;
//! * a pool claimed type-homogeneous must have a consistent element type
//!   across every pointer annotated with it.
//!
//! Only after the proof checks out does the verifier insert the run-time
//! checks of §4.5 — bounds checks on unproven indexing, load/store checks
//! on non-TH pools, indirect-call checks — applying the *reduced checks*
//! rule to incomplete partitions.

use std::collections::HashMap;

use sva_ir::verify::{verify_module_with, VerifyOptions};
use sva_ir::{
    Callee, CastOp, FuncId, Inst, InstId, Intrinsic, Module, Operand, PoolAnnotations, Type,
    ValueId,
};

use crate::compile::gep_statically_safe;

/// A metapool type-checking failure: the "proof" does not check out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolCheckError {
    /// Function (by name) where the rule failed.
    pub func: String,
    /// Offending instruction.
    pub inst: Option<InstId>,
    /// Which rule failed.
    pub rule: &'static str,
    /// Human-readable details.
    pub msg: String,
}

impl std::fmt::Display for PoolCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] rule {}: {}", self.func, self.rule, self.msg)
    }
}

impl std::error::Error for PoolCheckError {}

/// Statistics from verification and check insertion.
#[derive(Clone, Copy, Default, Debug)]
pub struct VerifyReport {
    /// Bounds checks inserted.
    pub bounds_checks: u32,
    /// Bounds checks skipped: statically proven safe.
    pub bounds_static_safe: u32,
    /// Bounds checks emitted against statically known bounds (no splay
    /// lookup), paper Fig. 2 line 19.
    pub bounds_known_range: u32,
    /// Load/store checks inserted.
    pub ls_checks: u32,
    /// Load/store checks skipped: type-homogeneous pool.
    pub ls_skipped_th: u32,
    /// Load/store checks skipped: incomplete pool (reduced checks).
    pub ls_skipped_incomplete: u32,
    /// Indirect-call checks inserted.
    pub func_checks: u32,
    /// Indirect-call checks skipped: incomplete target set.
    pub func_skipped_incomplete: u32,
}

/// A module that passed the verifier with run-time checks inserted. The
/// SVM only accepts this type when safety enforcement is on.
#[derive(Debug)]
pub struct VerifiedModule {
    /// The checked, instrumented module.
    pub module: Module,
    /// Verification statistics.
    pub report: VerifyReport,
}

/// Check-insertion options (ablations of the paper's §7.1.3 optimization
/// discussion).
#[derive(Clone, Copy, Debug)]
pub struct InsertOptions {
    /// Elide bounds checks on statically-provable-safe `getelementptr`s
    /// (§7.1.3 optimization 3). Disabling this is the "check everything"
    /// ablation.
    pub elide_static_safe: bool,
    /// When the verifier can determine the bounds expressions of the
    /// source object — the base pointer is directly an allocation result,
    /// so start and size are in scope — check against them directly
    /// instead of a splay lookup (paper §4.5 / Fig. 2 line 19).
    pub known_bounds: bool,
}

impl Default for InsertOptions {
    fn default() -> Self {
        InsertOptions {
            elide_static_safe: true,
            known_bounds: true,
        }
    }
}

/// Runs the full verifier: base IR checks, metapool proof checking, then
/// run-time check insertion.
pub fn verify_and_insert_checks(module: Module) -> Result<VerifiedModule, Vec<PoolCheckError>> {
    verify_and_insert_checks_with(module, InsertOptions::default())
}

/// [`verify_and_insert_checks`] with explicit insertion options.
pub fn verify_and_insert_checks_with(
    module: Module,
    opts: InsertOptions,
) -> Result<VerifiedModule, Vec<PoolCheckError>> {
    // Base structural verification; `pchk.reg/drop` inserted by the
    // (untrusted) compiler are allowed, the *check* operations are not —
    // but the compiler never emits those, so run in permissive mode and
    // reject explicitly below if check ops are present.
    let base = verify_module_with(
        &module,
        VerifyOptions {
            allow_check_intrinsics: true,
        },
    );
    if !base.is_empty() {
        return Err(base
            .into_iter()
            .map(|e| PoolCheckError {
                func: e.func.unwrap_or_default(),
                inst: e.inst,
                rule: "base-ir",
                msg: e.msg,
            })
            .collect());
    }
    let mut errs = Vec::new();
    for (fi, f) in module.funcs.iter().enumerate() {
        for (_, iid) in f.inst_order() {
            if let Inst::Call {
                callee: Callee::Intrinsic(i),
                ..
            } = f.inst(iid)
            {
                if matches!(
                    i,
                    Intrinsic::BoundsCheck
                        | Intrinsic::BoundsCheckRange
                        | Intrinsic::LsCheck
                        | Intrinsic::GetBounds
                        | Intrinsic::FuncCheck
                ) {
                    errs.push(PoolCheckError {
                        func: f.name.clone(),
                        inst: Some(iid),
                        rule: "no-preexisting-checks",
                        msg: format!("input bytecode already contains `{}`", i.name()),
                    });
                }
            }
        }
        let _ = fi;
    }
    if !errs.is_empty() {
        return Err(errs);
    }

    let Some(pa) = module.pool_annotations.clone() else {
        return Err(vec![PoolCheckError {
            func: String::new(),
            inst: None,
            rule: "annotations-present",
            msg: "module has no pool annotations (not produced by the safety compiler?)".into(),
        }]);
    };

    let errs = typecheck_annotations(&module, &pa);
    if !errs.is_empty() {
        return Err(errs);
    }

    let mut module = module;
    let report = insert_checks(&mut module, &pa, opts);
    Ok(VerifiedModule { module, report })
}

/// Runs only the metapool proof check (no check insertion) — used by the
/// fault-injection experiment.
pub fn typecheck_module(module: &Module) -> Vec<PoolCheckError> {
    match &module.pool_annotations {
        Some(pa) => typecheck_annotations(module, pa),
        None => vec![PoolCheckError {
            func: String::new(),
            inst: None,
            rule: "annotations-present",
            msg: "module has no pool annotations".into(),
        }],
    }
}

struct Rules<'a> {
    m: &'a Module,
    pa: &'a PoolAnnotations,
    errs: Vec<PoolCheckError>,
    /// Allocator boundary functions where call binding is exempt.
    allocator_fns: Vec<FuncId>,
}

/// True when `needle` occurs (transitively) as a field/element type of
/// `hay` — the relation that makes interior pointers pool-compatible.
fn type_nested_in(types: &sva_ir::TypeTable, hay: sva_ir::TypeId, needle: sva_ir::TypeId) -> bool {
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![hay];
    while let Some(t) = stack.pop() {
        if !seen.insert(t) {
            continue;
        }
        if t == needle {
            return true;
        }
        match types.get(t) {
            Type::Array(e, _) => stack.push(*e),
            Type::Struct(_) => stack.extend(types.struct_fields(t).iter().copied()),
            _ => {}
        }
    }
    false
}

fn typecheck_annotations(m: &Module, pa: &PoolAnnotations) -> Vec<PoolCheckError> {
    let allocator_fns = m
        .allocators
        .iter()
        .flat_map(|a| {
            [
                Some(a.alloc_fn.clone()),
                a.dealloc_fn.clone(),
                a.size_fn.clone(),
            ]
            .into_iter()
            .flatten()
        })
        .filter_map(|n| m.func_by_name(&n))
        .collect();
    let mut r = Rules {
        m,
        pa,
        errs: Vec::new(),
        allocator_fns,
    };

    // Structural sanity of the annotation tables themselves.
    if pa.value_pools.len() != m.funcs.len() || pa.global_pools.len() != m.globals.len() {
        r.errs.push(PoolCheckError {
            func: String::new(),
            inst: None,
            rule: "tables-shape",
            msg: "annotation tables do not match module shape".into(),
        });
        return r.errs;
    }
    for (fi, f) in m.funcs.iter().enumerate() {
        if pa.value_pools[fi].len() < f.num_values() {
            r.errs.push(PoolCheckError {
                func: f.name.clone(),
                inst: None,
                rule: "tables-shape",
                msg: "value pool row shorter than value count".into(),
            });
            return r.errs;
        }
        for mp in pa.value_pools[fi].iter().flatten() {
            if *mp as usize >= pa.metapools.len() {
                r.errs.push(PoolCheckError {
                    func: f.name.clone(),
                    inst: None,
                    rule: "tables-shape",
                    msg: format!("metapool id {mp} out of range"),
                });
                return r.errs;
            }
        }
    }

    // TH consistency: every pointer value annotated with a TH pool must
    // agree with the pool's element type.
    for (mpid, desc) in pa.metapools.iter().enumerate() {
        if !desc.type_homogeneous {
            continue;
        }
        let Some(elem) = desc.elem_type else {
            r.errs.push(PoolCheckError {
                func: String::new(),
                inst: None,
                rule: "th-elem-type",
                msg: format!("pool {} claims TH without an element type", desc.name),
            });
            continue;
        };
        for (fi, f) in m.funcs.iter().enumerate() {
            for v in 0..f.num_values() {
                if pa.value_pools[fi][v] != Some(mpid as u32) {
                    continue;
                }
                let ty = f.value_type(ValueId(v as u32));
                if !m.types.is_ptr(ty) {
                    continue;
                }
                let p = m.types.pointee(ty);
                // Byte-like pointees (i8, [N x i8]) are opaque views that
                // any pool tolerates — mirroring the analysis, which never
                // lets them define a pool's element type.
                let opaque = match m.types.get(p) {
                    Type::Int(8) => true,
                    Type::Array(e, _) => matches!(m.types.get(*e), Type::Int(8)),
                    _ => false,
                };
                // Interior pointers to (transitively nested) field types of
                // the element are fine: field indexing inside a TH object
                // stays inside the pool.
                if !opaque
                    && !m.types.same_or_array_of(p, elem)
                    && !type_nested_in(&m.types, elem, p)
                {
                    r.errs.push(PoolCheckError {
                        func: f.name.clone(),
                        inst: None,
                        rule: "th-consistency",
                        msg: format!(
                            "pool {} is TH over {} but %{} points to {}",
                            desc.name,
                            m.types.display(elem),
                            v,
                            m.types.display(p)
                        ),
                    });
                }
            }
        }
    }

    for (fi, _) in m.funcs.iter().enumerate() {
        r.check_function(FuncId(fi as u32));
    }
    r.errs
}

impl Rules<'_> {
    fn err(&mut self, f: FuncId, inst: Option<InstId>, rule: &'static str, msg: String) {
        self.errs.push(PoolCheckError {
            func: self.m.func(f).name.clone(),
            inst,
            rule,
            msg,
        });
    }

    fn pool_of(&self, f: FuncId, op: &Operand) -> Option<u32> {
        match op {
            Operand::Value(v) => self.pa.value_pool(f, *v),
            Operand::Global(g) => self.pa.global_pools[g.0 as usize],
            _ => None,
        }
    }

    fn cell_of(&self, f: FuncId, op: &Operand) -> u32 {
        match op {
            Operand::Value(v) => self.pa.value_cell(f, *v),
            _ => 0,
        }
    }

    fn points_to(&self, mp: u32, cell: u32) -> Option<u32> {
        self.pa.edge(mp, cell)
    }

    fn check_function(&mut self, fid: FuncId) {
        let f = self.m.func(fid);
        // Functions with no annotated values were not compiled with the
        // safety compiler (excluded modules): nothing to check.
        let any = (0..f.num_values()).any(|v| self.pa.value_pool(fid, ValueId(v as u32)).is_some());
        if !any {
            return;
        }
        let order: Vec<InstId> = f.inst_order().map(|(_, i)| i).collect();
        for iid in order {
            let inst = f.inst(iid).clone();
            let res_pool = f.result_of(iid).and_then(|v| self.pa.value_pool(fid, v));
            match &inst {
                Inst::Gep { base, indices } => {
                    let base_pool = self.pool_of(fid, base);
                    if base_pool != res_pool {
                        self.err(
                            fid,
                            Some(iid),
                            "gep-same-pool",
                            format!("gep base pool {base_pool:?} != result pool {res_pool:?}"),
                        );
                    }
                    // The landing cell must match the annotation (unless the
                    // pool lost field sensitivity, which forces cell 0).
                    if let (Some(mp), Some(res)) = (base_pool, f.result_of(iid)) {
                        let bty = f.operand_type(base, self.m);
                        let bcell = self.cell_of(fid, base);
                        let want = if self.pa.metapools[mp as usize].fields_collapsed {
                            0
                        } else {
                            sva_analysis::analyze::gep_cell(&self.m.types, bty, bcell, indices)
                        };
                        let got = self.pa.value_cell(fid, res);
                        if got != want {
                            self.err(
                                fid,
                                Some(iid),
                                "gep-cell",
                                format!("gep lands in cell {want} but annotation says {got}"),
                            );
                        }
                    }
                }
                Inst::Cast { op, val, .. } => {
                    if matches!(op, CastOp::Bitcast | CastOp::PtrToInt | CastOp::IntToPtr) {
                        let vp = self.pool_of(fid, val);
                        // inttoptr of an untracked integer has no source
                        // pool; a fresh (unknown) result pool is fine.
                        if vp.is_some() && vp != res_pool {
                            self.err(
                                fid,
                                Some(iid),
                                "cast-same-pool",
                                format!("cast source pool {vp:?} != result pool {res_pool:?}"),
                            );
                        }
                    }
                }
                Inst::Load { ptr } => {
                    if let Some(rp) = res_pool {
                        match self.pool_of(fid, ptr) {
                            Some(pp) => {
                                let cell = self.cell_of(fid, ptr);
                                let edge = self.points_to(pp, cell);
                                if edge != Some(rp) {
                                    self.err(
                                        fid,
                                        Some(iid),
                                        "load-points-to",
                                        format!(
                                            "load from pool {pp} cell {cell} yields pool {rp} but edge is {edge:?}"
                                        ),
                                    );
                                }
                            }
                            None => self.err(
                                fid,
                                Some(iid),
                                "load-points-to",
                                "pointer has no pool but result does".into(),
                            ),
                        }
                    }
                }
                Inst::Store { val, ptr } => {
                    let vp = self.pool_of(fid, val);
                    if let Some(vp) = vp {
                        // Only pointer-typed stores constrain the edge.
                        let vty = f.operand_type(val, self.m);
                        if self.m.types.is_ptr(vty) {
                            match self.pool_of(fid, ptr) {
                                Some(pp) => {
                                    let cell = self.cell_of(fid, ptr);
                                    let edge = self.points_to(pp, cell);
                                    if edge != Some(vp) {
                                        self.err(
                                            fid,
                                            Some(iid),
                                            "store-points-to",
                                            format!(
                                                "store of pool {vp} into pool {pp} cell {cell} but edge is {edge:?}"
                                            ),
                                        );
                                    }
                                }
                                None => self.err(
                                    fid,
                                    Some(iid),
                                    "store-points-to",
                                    "pointer has no pool but stored value does".into(),
                                ),
                            }
                        }
                    }
                }
                Inst::Bin { lhs, rhs, .. } => {
                    // Pointer-sized integer tracking (§4.8): the result
                    // inherits the base operand's pool (left side first,
                    // mirroring the analysis). Only checked when both ends
                    // carry annotations.
                    if let Some(rp) = res_pool {
                        let src = match (lhs, rhs) {
                            (Operand::Value(_), _) => self.pool_of(fid, lhs),
                            (_, Operand::Value(_)) => self.pool_of(fid, rhs),
                            _ => None,
                        };
                        if let Some(sp) = src {
                            if sp != rp {
                                self.err(
                                    fid,
                                    Some(iid),
                                    "bin-propagate",
                                    format!(
                                        "arithmetic result pool {rp} != base operand pool {sp}"
                                    ),
                                );
                            }
                        }
                    }
                }
                Inst::Phi { incomings, .. } => {
                    if let Some(rp) = res_pool {
                        for (_, v) in incomings {
                            if matches!(
                                v,
                                Operand::Null(_) | Operand::Undef(_) | Operand::ConstInt(..)
                            ) {
                                continue;
                            }
                            let vp = self.pool_of(fid, v);
                            if vp != Some(rp) {
                                self.err(
                                    fid,
                                    Some(iid),
                                    "phi-same-pool",
                                    format!("phi merges pool {vp:?} into pool {rp}"),
                                );
                            }
                        }
                    }
                }
                Inst::Select { tval, fval, .. } => {
                    if let Some(rp) = res_pool {
                        for v in [tval, fval] {
                            if matches!(
                                v,
                                Operand::Null(_) | Operand::Undef(_) | Operand::ConstInt(..)
                            ) {
                                continue;
                            }
                            let vp = self.pool_of(fid, v);
                            if vp != Some(rp) {
                                self.err(
                                    fid,
                                    Some(iid),
                                    "select-same-pool",
                                    format!("select merges pool {vp:?} into pool {rp}"),
                                );
                            }
                        }
                    }
                }
                Inst::Call {
                    callee: Callee::Direct(t),
                    args,
                } => {
                    if self.allocator_fns.contains(t) {
                        // Allocator boundary: partitions are born here.
                        continue;
                    }
                    let tf = self.m.func(*t);
                    // Callee not compiled with annotations → skip.
                    let t_any = (0..tf.num_values())
                        .any(|v| self.pa.value_pool(*t, ValueId(v as u32)).is_some());
                    if !t_any {
                        continue;
                    }
                    for (a, p) in args.iter().zip(tf.params.iter()) {
                        if matches!(a, Operand::Null(_) | Operand::Undef(_)) {
                            continue;
                        }
                        let ap = self.pool_of(fid, a);
                        let pp = self.pa.value_pool(*t, *p);
                        // A pointer parameter always binds its argument.
                        // The analysis also annotates pointer-sized
                        // integers (an allocation size handed on to
                        // `mm_claim`), so a non-pointer parameter binds
                        // when both sides carry a pool; constants and
                        // unannotated integers stay unbound.
                        let pty = tf.value_type(*p);
                        if !self.m.types.is_ptr(pty) && (ap.is_none() || pp.is_none()) {
                            continue;
                        }
                        if ap != pp {
                            self.err(
                                fid,
                                Some(iid),
                                "call-arg-pool",
                                format!(
                                    "arg pool {ap:?} != param pool {pp:?} calling @{}",
                                    tf.name
                                ),
                            );
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// Inserts the §4.5 run-time checks into a proof-checked module.
fn insert_checks(m: &mut Module, pa: &PoolAnnotations, opts: InsertOptions) -> VerifyReport {
    let mut report = VerifyReport::default();
    let i64t = m.types.i64();
    let call_sets: HashMap<(u32, u32), u32> = pa
        .call_sets
        .iter()
        .map(|(f, i, s)| ((*f, *i), *s))
        .collect();

    for fi in 0..m.funcs.len() {
        let fid = FuncId(fi as u32);
        let any =
            (0..m.func(fid).num_values()).any(|v| pa.value_pool(fid, ValueId(v as u32)).is_some());
        if !any {
            continue;
        }
        let mut placements: Vec<(InstId, bool /*after*/, InstId)> = Vec::new();
        let order: Vec<InstId> = m.func(fid).inst_order().map(|(_, i)| i).collect();
        for iid in order {
            let inst = m.func(fid).inst(iid).clone();
            match &inst {
                Inst::Gep { base, indices } => {
                    let Some(res) = m.func(fid).result_of(iid) else {
                        continue;
                    };
                    let Some(mp) = pa.value_pool(fid, res) else {
                        continue;
                    };
                    if opts.elide_static_safe && gep_statically_safe(m, m.func(fid), base, indices)
                    {
                        report.bounds_static_safe += 1;
                        continue;
                    }
                    // Known-bounds form (Fig. 2 line 19): the base pointer
                    // is an allocation result, so its bounds expressions
                    // (start = base, end = base + size-argument) are in
                    // scope and SSA dominance makes them usable here.
                    if opts.known_bounds {
                        if let Some(size_op) = alloc_size_operand(m, fid, base) {
                            let i64w = i64t;
                            let (pi, piv) = m.func_mut(fid).add_inst_detached(
                                Inst::Cast {
                                    op: CastOp::PtrToInt,
                                    val: *base,
                                    to: i64w,
                                },
                                Some(i64w),
                            );
                            let (endi, endv) = m.func_mut(fid).add_inst_detached(
                                Inst::Bin {
                                    op: sva_ir::BinOp::Add,
                                    lhs: Operand::Value(piv.unwrap()),
                                    rhs: size_op,
                                },
                                Some(i64w),
                            );
                            let args = vec![
                                Operand::Value(piv.unwrap()),
                                Operand::Value(res),
                                Operand::Value(endv.unwrap()),
                            ];
                            let (chk, _) = m.func_mut(fid).add_inst_detached(
                                Inst::Call {
                                    callee: Callee::Intrinsic(Intrinsic::BoundsCheckRange),
                                    args,
                                },
                                None,
                            );
                            placements.push((iid, true, pi));
                            placements.push((iid, true, endi));
                            placements.push((iid, true, chk));
                            report.bounds_known_range += 1;
                            continue;
                        }
                    }
                    let args = vec![
                        Operand::ConstInt(mp as i64, i64t),
                        *base,
                        Operand::Value(res),
                    ];
                    let (chk, _) = m.func_mut(fid).add_inst_detached(
                        Inst::Call {
                            callee: Callee::Intrinsic(Intrinsic::BoundsCheck),
                            args,
                        },
                        None,
                    );
                    placements.push((iid, true, chk));
                    report.bounds_checks += 1;
                }
                Inst::Load { ptr } | Inst::Store { ptr, .. } => {
                    let mp = match ptr {
                        Operand::Value(v) => pa.value_pool(fid, *v),
                        Operand::Global(g) => pa.global_pools[g.0 as usize],
                        _ => None,
                    };
                    let Some(mp) = mp else { continue };
                    let desc = &pa.metapools[mp as usize];
                    if desc.type_homogeneous {
                        report.ls_skipped_th += 1;
                        continue;
                    }
                    if !desc.complete {
                        // Reduced checks (paper §4.5): a load-store check on
                        // an incomplete partition is useless.
                        report.ls_skipped_incomplete += 1;
                        continue;
                    }
                    let args = vec![Operand::ConstInt(mp as i64, i64t), *ptr];
                    let (chk, _) = m.func_mut(fid).add_inst_detached(
                        Inst::Call {
                            callee: Callee::Intrinsic(Intrinsic::LsCheck),
                            args,
                        },
                        None,
                    );
                    placements.push((iid, false, chk));
                    report.ls_checks += 1;
                }
                Inst::Call {
                    callee: Callee::Indirect(fp),
                    ..
                } => match call_sets.get(&(fid.0, iid.0)) {
                    Some(set) => {
                        let args = vec![Operand::ConstInt(*set as i64, i64t), *fp];
                        let (chk, _) = m.func_mut(fid).add_inst_detached(
                            Inst::Call {
                                callee: Callee::Intrinsic(Intrinsic::FuncCheck),
                                args,
                            },
                            None,
                        );
                        placements.push((iid, false, chk));
                        report.func_checks += 1;
                    }
                    None => {
                        report.func_skipped_incomplete += 1;
                    }
                },
                _ => {}
            }
        }
        splice_checks(m.func_mut(fid), placements);
    }
    report
}

/// If `base` is directly the result of a declared allocator call whose
/// byte size is an argument, returns that size operand (typed i64).
fn alloc_size_operand(m: &Module, fid: FuncId, base: &Operand) -> Option<Operand> {
    let f = m.func(fid);
    // Look through bitcasts: `fi = (fib_info*) kmalloc(...)` keeps the
    // allocation's bounds (the paper's Fig. 2 does exactly this).
    let mut cur = *base;
    for _ in 0..4 {
        let Operand::Value(v) = cur else { return None };
        let sva_ir::ValueDef::Inst(def) = f.value_defs[v.0 as usize] else {
            return None;
        };
        match f.inst(def) {
            Inst::Cast {
                op: CastOp::Bitcast,
                val,
                ..
            } => cur = *val,
            Inst::Call {
                callee: Callee::Direct(t),
                args,
            } => {
                let tname = &m.func(*t).name;
                let alloc = m.allocator_for_alloc_fn(tname)?;
                let sva_ir::SizeSpec::Arg(n) = alloc.size else {
                    return None;
                };
                let size_op = *args.get(n)?;
                // Only i64-typed size operands can feed the add directly.
                let ty = f.operand_type(&size_op, m);
                return if matches!(m.types.get(ty), Type::Int(64)) {
                    Some(size_op)
                } else {
                    None
                };
            }
            _ => return None,
        }
    }
    None
}

fn splice_checks(f: &mut sva_ir::Function, placements: Vec<(InstId, bool, InstId)>) {
    if placements.is_empty() {
        return;
    }
    let mut before: HashMap<InstId, Vec<InstId>> = HashMap::new();
    let mut after: HashMap<InstId, Vec<InstId>> = HashMap::new();
    for (anchor, is_after, inst) in placements {
        if is_after {
            after.entry(anchor).or_default().push(inst);
        } else {
            before.entry(anchor).or_default().push(inst);
        }
    }
    for b in &mut f.blocks {
        let old = std::mem::take(&mut b.insts);
        let mut newlist = Vec::with_capacity(old.len());
        for iid in old {
            if let Some(pre) = before.get(&iid) {
                newlist.extend(pre.iter().copied());
            }
            newlist.push(iid);
            if let Some(post) = after.get(&iid) {
                newlist.extend(post.iter().copied());
            }
        }
        b.insts = newlist;
    }
}

/// Identifier of a typed pointer for external consumers: `TypeId` of the
/// pointee plus the metapool name — the paper's `int *M1 Q` notation.
pub fn annotated_type(m: &Module, pa: &PoolAnnotations, f: FuncId, v: ValueId) -> Option<String> {
    let mp = pa.value_pool(f, v)?;
    let ty = m.func(f).value_type(v);
    if !m.types.is_ptr(ty) {
        return None;
    }
    let pointee = m.types.pointee(ty);
    Some(format!(
        "{} *{} ",
        m.types.display(pointee),
        pa.metapools[mp as usize].name
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use sva_analysis::AnalysisConfig;
    use sva_ir::build::FunctionBuilder;
    use sva_ir::{AllocKind, AllocatorDecl, Linkage, SizeSpec};

    fn kernel_module() -> Module {
        let mut m = Module::new("k");
        let i8 = m.types.i8();
        let bp = m.types.ptr(i8);
        let i64t = m.types.i64();
        let void = m.types.void();
        // A real bump allocator so VM-run tests allocate usable memory.
        let brk0 = sva_vm::KHEAP_BASE.to_le_bytes().to_vec();
        let g_brk = m.add_global("brk", i64t, sva_ir::GlobalInit::Bytes(brk0), false);
        let kty = m.types.func(bp, vec![i64t], false);
        let kmalloc = m.add_function("kmalloc", kty, Linkage::Public);
        let fty = m.types.func(void, vec![bp], false);
        let kfree = m.add_function("kfree", fty, Linkage::Public);
        m.declare_allocator(AllocatorDecl {
            name: "kmalloc".into(),
            kind: AllocKind::Ordinary,
            alloc_fn: "kmalloc".into(),
            dealloc_fn: Some("kfree".into()),
            pool_create_fn: None,
            pool_destroy_fn: None,
            size: SizeSpec::Arg(0),
            size_fn: None,
            pool_arg: None,
            backed_by: None,
        });
        m.intern_address_types();
        {
            let mut b = FunctionBuilder::new(&mut m, kmalloc);
            let sz = b.param(0);
            let cur = b.load(sva_ir::Operand::Global(g_brk));
            let new = b.add(cur, sz);
            b.store(new, sva_ir::Operand::Global(g_brk));
            let p = b.inttoptr(cur, i8);
            b.ret(Some(p));
        }
        {
            let mut b = FunctionBuilder::new(&mut m, kfree);
            b.ret(None);
        }
        m
    }

    fn compiled_with_array_walk() -> Module {
        let mut m = kernel_module();
        let i64t = m.types.i64();
        let void = m.types.void();
        let fty = m.types.func(void, vec![i64t], false);
        let f = m.add_function("walker", fty, Linkage::Public);
        m.intern_address_types();
        {
            let mut b = FunctionBuilder::new(&mut m, f);
            let idx = b.param(0);
            let sz = b.c64(256);
            let p = b.call_named("kmalloc", vec![sz]).unwrap();
            let q = b.index_ptr(p, idx); // dynamic index → bounds check
            let zero = b.c8(0);
            b.store(zero, q);
            b.ret(None);
        }
        compile(m, &AnalysisConfig::kernel(), &CompileOptions::default()).module
    }

    #[test]
    fn verifier_accepts_compiler_output() {
        let m = compiled_with_array_walk();
        let out = verify_and_insert_checks(m).expect("verifies");
        // The kmalloc-based gep gets the known-bounds form (Fig. 2 line
        // 19); nothing needs a splay-based check here.
        assert!(
            out.report.bounds_checks + out.report.bounds_known_range >= 1,
            "{:?}",
            out.report
        );
        assert!(out.report.bounds_known_range >= 1, "{:?}", out.report);
    }

    #[test]
    fn verifier_inserts_bounds_check_after_dynamic_gep() {
        let m = compiled_with_array_walk();
        let out = verify_and_insert_checks(m).unwrap();
        let f = out.module.func_by_name("walker").unwrap();
        let func = out.module.func(f);
        let mut saw_gep = false;
        let mut check_follows = false;
        let mut window = Vec::new();
        for (_, iid) in func.inst_order() {
            let inst = func.inst(iid);
            if matches!(inst, Inst::Gep { .. }) {
                saw_gep = true;
                window = vec![iid];
            } else if saw_gep && window.len() < 4 {
                if matches!(
                    inst,
                    Inst::Call {
                        callee: Callee::Intrinsic(
                            Intrinsic::BoundsCheck | Intrinsic::BoundsCheckRange
                        ),
                        ..
                    }
                ) {
                    check_follows = true;
                }
                window.push(iid);
            }
        }
        assert!(saw_gep && check_follows);
    }

    #[test]
    fn known_bounds_form_still_catches_overflow() {
        let m = compiled_with_array_walk();
        let out = verify_and_insert_checks(m).unwrap();
        let mut vm = sva_vm::Vm::new(
            out.module,
            sva_vm::VmConfig {
                kind: sva_vm::KernelKind::SvaSafe,
                ..Default::default()
            },
        )
        .unwrap();
        let r = vm.call("walker", &[255]);
        assert!(r.is_ok(), "{r:?}");
        let err = vm.call("walker", &[257]).unwrap_err();
        assert!(matches!(err, sva_vm::VmError::Safety(_)), "{err}");
    }

    #[test]
    fn th_pool_loads_need_no_ls_check() {
        let mut m = kernel_module();
        let i64t = m.types.i64();
        let void = m.types.void();
        let fty = m.types.func(void, vec![], false);
        let f = m.add_function("typed", fty, Linkage::Public);
        m.intern_address_types();
        {
            let mut b = FunctionBuilder::new(&mut m, f);
            let s = b.alloca(i64t);
            let one = b.c64(1);
            b.store(one, s);
            let _ = b.load(s);
            b.ret(None);
        }
        let c = compile(m, &AnalysisConfig::kernel(), &CompileOptions::default());
        let out = verify_and_insert_checks(c.module).unwrap();
        assert!(out.report.ls_skipped_th >= 2, "{:?}", out.report);
        assert_eq!(out.report.ls_checks, 0);
    }

    #[test]
    fn rejects_module_without_annotations() {
        let m = kernel_module();
        let err = verify_and_insert_checks(m).unwrap_err();
        assert_eq!(err[0].rule, "annotations-present");
    }

    #[test]
    fn rejects_preexisting_check_intrinsics() {
        let mut m = kernel_module();
        let i8 = m.types.i8();
        let void = m.types.void();
        let bp = m.types.ptr(i8);
        let fty = m.types.func(void, vec![bp], false);
        let f = m.add_function("smuggler", fty, Linkage::Public);
        m.intern_address_types();
        {
            let mut b = FunctionBuilder::new(&mut m, f);
            let zero = b.c64(0);
            let p = b.param(0);
            b.intrinsic(Intrinsic::LsCheck, vec![zero, p], None);
            b.ret(None);
        }
        m.pool_annotations = Some(PoolAnnotations {
            metapools: vec![],
            value_pools: vec![vec![]; m.funcs.len()],
            value_cells: vec![vec![]; m.funcs.len()],
            global_pools: vec![],
            func_sets: vec![],
            call_sets: vec![],
        });
        let err = verify_and_insert_checks(m).unwrap_err();
        assert!(
            err.iter().any(|e| e.rule == "no-preexisting-checks"),
            "{err:?}"
        );
    }

    #[test]
    fn detects_tampered_value_pool() {
        let mut m = compiled_with_array_walk();
        // Tamper: move the gep result into a different (fresh) pool.
        let pa = m.pool_annotations.as_mut().unwrap();
        let extra = pa.metapools.len() as u32;
        pa.metapools.push(sva_ir::MetaPoolDesc {
            name: "MPevil".into(),
            type_homogeneous: false,
            complete: true,
            elem_type: None,
            points_to: Vec::new(),
            fields_collapsed: false,
            userspace: false,
        });
        let f = m.func_by_name("walker").unwrap();
        // Find the gep result value and reassign its pool.
        let gep_res = {
            let func = m.func(f);
            func.inst_order()
                .find_map(|(_, iid)| match func.inst(iid) {
                    Inst::Gep { .. } => func.result_of(iid),
                    _ => None,
                })
                .unwrap()
        };
        m.pool_annotations.as_mut().unwrap().value_pools[f.0 as usize][gep_res.0 as usize] =
            Some(extra);
        let err = verify_and_insert_checks(m).unwrap_err();
        assert!(err.iter().any(|e| e.rule == "gep-same-pool"), "{err:?}");
    }

    #[test]
    fn detects_tampered_points_to_edge() {
        let mut m = kernel_module();
        let i64t = m.types.i64();
        let p64 = m.types.ptr(i64t);
        let void = m.types.void();
        let pp64 = m.types.ptr(p64);
        let fty = m.types.func(void, vec![pp64], false);
        let f = m.add_function("chase", fty, Linkage::Public);
        m.intern_address_types();
        {
            let mut b = FunctionBuilder::new(&mut m, f);
            let pp = b.param(0);
            let p = b.load(pp);
            let one = b.c64(1);
            b.store(one, p);
            b.ret(None);
        }
        let c = compile(m, &AnalysisConfig::kernel(), &CompileOptions::default());
        let mut m = c.module;
        // Corrupt the points-to edge of the pointer-to-pointer pool.
        {
            let f2 = m.func_by_name("chase").unwrap();
            let pa = m.pool_annotations.as_mut().unwrap();
            let param0 = 0usize;
            let pool = pa.value_pools[f2.0 as usize][param0].unwrap();
            pa.metapools[pool as usize].points_to.clear();
        }
        let err = verify_and_insert_checks(m).unwrap_err();
        assert!(err.iter().any(|e| e.rule == "load-points-to"), "{err:?}");
    }

    #[test]
    fn detects_false_th_claim() {
        let m = compiled_with_array_walk();
        let mut m = m;
        {
            let pa = m.pool_annotations.as_mut().unwrap();
            // Claim some collapsed/typeless pool is TH.
            let victim = pa
                .metapools
                .iter()
                .position(|d| d.elem_type.is_none())
                .expect("some pool without elem type");
            pa.metapools[victim].type_homogeneous = true;
        }
        let err = verify_and_insert_checks(m).unwrap_err();
        assert!(err.iter().any(|e| e.rule == "th-elem-type"), "{err:?}");
    }

    #[test]
    fn annotated_type_renders_paper_notation() {
        let m = compiled_with_array_walk();
        let f = m.func_by_name("walker").unwrap();
        let pa = m.pool_annotations.as_ref().unwrap();
        // Find an annotated pointer value.
        let func = m.func(f);
        let v = (0..func.num_values() as u32)
            .map(ValueId)
            .find(|v| m.types.is_ptr(func.value_type(*v)) && pa.value_pool(f, *v).is_some())
            .unwrap();
        let s = annotated_type(&m, pa, f, v).unwrap();
        assert!(s.contains("*MP"), "{s}");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use sva_analysis::AnalysisConfig;
    use sva_ir::build::FunctionBuilder;
    use sva_ir::{AllocKind, AllocatorDecl, GlobalInit, Linkage, Module, SizeSpec};

    /// A module with a pointer-to-pointer store (exercises the
    /// store-points-to rule) and a call chain (exercises call-arg-pool).
    fn chain_module() -> Module {
        let mut m = Module::new("chain");
        let i8 = m.types.i8();
        let bp = m.types.ptr(i8);
        let i64t = m.types.i64();
        let p64 = m.types.ptr(i64t);
        let void = m.types.void();
        let kty = m.types.func(bp, vec![i64t], false);
        let km = m.add_function("kmalloc", kty, Linkage::Public);
        m.declare_allocator(AllocatorDecl {
            name: "kmalloc".into(),
            kind: AllocKind::Ordinary,
            alloc_fn: "kmalloc".into(),
            dealloc_fn: None,
            pool_create_fn: None,
            pool_destroy_fn: None,
            size: SizeSpec::Arg(0),
            size_fn: None,
            pool_arg: None,
            backed_by: None,
        });
        // A pointer-typed global slot: stores into it exercise the
        // store-points-to rule.
        let g = m.add_global("slot", p64, GlobalInit::Zero, false);
        let hty = m.types.func(void, vec![p64], false);
        let helper = m.add_function("helper", hty, Linkage::Internal);
        let fty = m.types.func(void, vec![], false);
        let f = m.add_function("driver", fty, Linkage::Public);
        m.intern_address_types();
        {
            let mut b = FunctionBuilder::new(&mut m, km);
            let n = b.null(i8);
            b.ret(Some(n));
        }
        {
            let mut b = FunctionBuilder::new(&mut m, helper);
            let p = b.param(0);
            let one = b.c64(1);
            b.store(one, p);
            b.ret(None);
        }
        {
            let mut b = FunctionBuilder::new(&mut m, f);
            let sz = b.c64(64);
            let raw = b.call(km, vec![sz]).unwrap();
            let p = b.bitcast_ptr(raw, i64t);
            // store the pointer into a pointer-to-pointer global slot
            b.store(p, sva_ir::Operand::Global(g));
            // reload and pass down a call chain
            let q = b.load(sva_ir::Operand::Global(g));
            b.call(helper, vec![q]);
            b.ret(None);
        }
        m
    }

    fn compiled() -> Module {
        compile(
            chain_module(),
            &AnalysisConfig::kernel(),
            &CompileOptions::default(),
        )
        .module
    }

    #[test]
    fn chain_module_verifies_clean() {
        let errs = typecheck_module(&compiled());
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn store_points_to_tamper_detected() {
        let mut m = compiled();
        // Retag the stored pointer's pool: the store-points-to rule fires.
        let f = m.func_by_name("driver").unwrap();
        let bitcast_res = {
            let func = m.func(f);
            func.inst_order()
                .find_map(|(_, iid)| match func.inst(iid) {
                    Inst::Cast {
                        op: CastOp::Bitcast,
                        ..
                    } => func.result_of(iid),
                    _ => None,
                })
                .unwrap()
        };
        let pa = m.pool_annotations.as_mut().unwrap();
        let evil = pa.metapools.len() as u32;
        let mut clone = pa.metapools[0].clone();
        clone.name = "MPevil2".into();
        pa.metapools.push(clone);
        pa.value_pools[f.0 as usize][bitcast_res.0 as usize] = Some(evil);
        let errs = typecheck_module(&m);
        assert!(
            errs.iter()
                .any(|e| e.rule == "store-points-to" || e.rule == "cast-same-pool"),
            "{errs:?}"
        );
    }

    #[test]
    fn call_arg_pool_tamper_detected() {
        let mut m = compiled();
        // Retag the callee's parameter pool.
        let h = m.func_by_name("helper").unwrap();
        let param = m.func(h).params[0];
        let pa = m.pool_annotations.as_mut().unwrap();
        let evil = pa.metapools.len() as u32;
        let mut clone = pa.metapools[0].clone();
        clone.name = "MPevil3".into();
        pa.metapools.push(clone);
        pa.value_pools[h.0 as usize][param.0 as usize] = Some(evil);
        let errs = typecheck_module(&m);
        assert!(
            errs.iter()
                .any(|e| e.rule == "call-arg-pool" || e.rule == "store-points-to"),
            "{errs:?}"
        );
    }

    #[test]
    fn gep_cell_tamper_detected() {
        // Build a struct access and corrupt the cell annotation.
        let mut m = Module::new("cells");
        let i64t = m.types.i64();
        let p64 = m.types.ptr(i64t);
        let s = m.types.struct_type("two", vec![i64t, p64]);
        let sp = m.types.ptr(s);
        let void = m.types.void();
        let fty = m.types.func(void, vec![sp], false);
        let f = m.add_function("touch", fty, Linkage::Public);
        m.intern_address_types();
        {
            let mut b = FunctionBuilder::new(&mut m, f);
            let p = b.param(0);
            let fp = b.field_ptr(p, 1);
            let v = b.load(fp);
            let one = b.c64(1);
            b.store(one, v);
            b.ret(None);
        }
        let mut m = compile(m, &AnalysisConfig::kernel(), &CompileOptions::default()).module;
        assert!(typecheck_module(&m).is_empty());
        // Corrupt the gep result's cell.
        let f = m.func_by_name("touch").unwrap();
        let gep_res = {
            let func = m.func(f);
            func.inst_order()
                .find_map(|(_, iid)| match func.inst(iid) {
                    Inst::Gep { .. } => func.result_of(iid),
                    _ => None,
                })
                .unwrap()
        };
        let pa = m.pool_annotations.as_mut().unwrap();
        pa.value_cells[f.0 as usize][gep_res.0 as usize] = 0;
        let errs = typecheck_module(&m);
        assert!(
            errs.iter()
                .any(|e| e.rule == "gep-cell" || e.rule == "load-points-to"),
            "{errs:?}"
        );
    }
}
