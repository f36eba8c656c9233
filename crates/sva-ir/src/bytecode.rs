//! On-disk "bytecode" encoding of SVA modules, plus digital signing.
//!
//! SVA code is shipped to end-user systems as virtual object code
//! (paper §2). When translation happens offline, the cached native code and
//! the bytecode are *digitally signed together* so the SVM can check their
//! integrity at load time (paper §3.4). This module provides:
//!
//! * [`encode_module`] / [`decode_module`] — a compact, versioned binary
//!   encoding of a whole [`Module`] including its pool annotations, and
//! * [`sign`] / [`verify_signature`] — a keyed integrity tag.
//!
//! The tag is a keyed sponge over a 64-bit mixing permutation — an
//! *integrity simulation*, not a cryptographic MAC; a production SVM would
//! use a real signature scheme. The structure (sign bytecode + native cache
//! together, verify before use) is what the paper specifies and is what the
//! SVM in `sva-vm` enforces.

use crate::inst::{AtomicOp, BinOp, Callee, CastOp, IPred, Inst, InstId, Intrinsic, Operand};
use crate::module::{
    AllocKind, AllocatorDecl, Block, BlockId, ExternId, FuncId, Function, GlobalId, GlobalInit,
    Linkage, MetaPoolDesc, Module, PoolAnnotations, RelocTarget, SizeSpec, ValueDef, ValueId,
};
use crate::types::{StructDef, Type, TypeId, TypeTable};

/// Magic bytes at the start of every bytecode file.
pub const MAGIC: &[u8; 6] = b"SVABC\x01";

/// Errors produced while decoding bytecode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The magic header did not match.
    BadMagic,
    /// Input ended prematurely.
    Truncated,
    /// An enum tag byte was out of range.
    BadTag(&'static str, u8),
    /// A string was not valid UTF-8.
    BadString,
    /// The integrity signature did not verify.
    BadSignature,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad bytecode magic"),
            DecodeError::Truncated => write!(f, "truncated bytecode"),
            DecodeError::BadTag(what, t) => write!(f, "bad {what} tag {t}"),
            DecodeError::BadString => write!(f, "invalid utf-8 string"),
            DecodeError::BadSignature => write!(f, "bytecode signature verification failed"),
        }
    }
}

impl std::error::Error for DecodeError {}

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
        }
    }

    fn opt_str(&mut self, v: &Option<String>) {
        match v {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32` element count. Every element encodes to at least one byte,
    /// so a count larger than the remaining input is rejected before
    /// anything is allocated for it.
    fn count(&mut self) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.count()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| DecodeError::BadString)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let n = self.count()?;
        Ok(self.take(n)?.to_vec())
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            _ => Ok(Some(self.u32()?)),
        }
    }

    fn opt_str(&mut self) -> Result<Option<String>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            _ => Ok(Some(self.str()?)),
        }
    }
}

fn enc_operand(e: &mut Enc, op: &Operand) {
    match op {
        Operand::Value(v) => {
            e.u8(0);
            e.u32(v.0);
        }
        Operand::ConstInt(v, t) => {
            e.u8(1);
            e.i64(*v);
            e.u32(t.0);
        }
        Operand::ConstF64(bits) => {
            e.u8(2);
            e.u64(*bits);
        }
        Operand::Null(t) => {
            e.u8(3);
            e.u32(t.0);
        }
        Operand::Global(g) => {
            e.u8(4);
            e.u32(g.0);
        }
        Operand::Func(f) => {
            e.u8(5);
            e.u32(f.0);
        }
        Operand::Extern(x) => {
            e.u8(6);
            e.u32(x.0);
        }
        Operand::Undef(t) => {
            e.u8(7);
            e.u32(t.0);
        }
    }
}

fn dec_operand(d: &mut Dec) -> Result<Operand, DecodeError> {
    Ok(match d.u8()? {
        0 => Operand::Value(ValueId(d.u32()?)),
        1 => {
            let v = d.i64()?;
            Operand::ConstInt(v, TypeId(d.u32()?))
        }
        2 => Operand::ConstF64(d.u64()?),
        3 => Operand::Null(TypeId(d.u32()?)),
        4 => Operand::Global(GlobalId(d.u32()?)),
        5 => Operand::Func(FuncId(d.u32()?)),
        6 => Operand::Extern(ExternId(d.u32()?)),
        7 => Operand::Undef(TypeId(d.u32()?)),
        t => return Err(DecodeError::BadTag("operand", t)),
    })
}

fn enc_operands(e: &mut Enc, ops: &[Operand]) {
    e.u32(ops.len() as u32);
    for o in ops {
        enc_operand(e, o);
    }
}

fn dec_operands(d: &mut Dec) -> Result<Vec<Operand>, DecodeError> {
    let n = d.count()?;
    (0..n).map(|_| dec_operand(d)).collect()
}

fn enc_inst(e: &mut Enc, inst: &Inst) {
    match inst {
        Inst::Bin { op, lhs, rhs } => {
            e.u8(0);
            e.u8(*op as u8);
            enc_operand(e, lhs);
            enc_operand(e, rhs);
        }
        Inst::ICmp { pred, lhs, rhs } => {
            e.u8(1);
            e.u8(*pred as u8);
            enc_operand(e, lhs);
            enc_operand(e, rhs);
        }
        Inst::Select { cond, tval, fval } => {
            e.u8(2);
            enc_operand(e, cond);
            enc_operand(e, tval);
            enc_operand(e, fval);
        }
        Inst::Cast { op, val, to } => {
            e.u8(3);
            e.u8(*op as u8);
            enc_operand(e, val);
            e.u32(to.0);
        }
        Inst::Gep { base, indices } => {
            e.u8(4);
            enc_operand(e, base);
            enc_operands(e, indices);
        }
        Inst::Load { ptr } => {
            e.u8(5);
            enc_operand(e, ptr);
        }
        Inst::Store { val, ptr } => {
            e.u8(6);
            enc_operand(e, val);
            enc_operand(e, ptr);
        }
        Inst::Alloca { ty, count } => {
            e.u8(7);
            e.u32(ty.0);
            enc_operand(e, count);
        }
        Inst::Call { callee, args } => {
            e.u8(8);
            match callee {
                Callee::Direct(f) => {
                    e.u8(0);
                    e.u32(f.0);
                }
                Callee::External(x) => {
                    e.u8(1);
                    e.u32(x.0);
                }
                Callee::Indirect(op) => {
                    e.u8(2);
                    enc_operand(e, op);
                }
                Callee::Intrinsic(i) => {
                    e.u8(3);
                    e.str(i.name());
                }
            }
            enc_operands(e, args);
        }
        Inst::Phi { incomings, ty } => {
            e.u8(9);
            e.u32(ty.0);
            e.u32(incomings.len() as u32);
            for (b, v) in incomings {
                e.u32(b.0);
                enc_operand(e, v);
            }
        }
        Inst::AtomicRmw { op, ptr, val } => {
            e.u8(10);
            e.u8(*op as u8);
            enc_operand(e, ptr);
            enc_operand(e, val);
        }
        Inst::CmpXchg { ptr, expected, new } => {
            e.u8(11);
            enc_operand(e, ptr);
            enc_operand(e, expected);
            enc_operand(e, new);
        }
        Inst::Fence => e.u8(12),
        Inst::Br { target } => {
            e.u8(13);
            e.u32(target.0);
        }
        Inst::CondBr {
            cond,
            then_bb,
            else_bb,
        } => {
            e.u8(14);
            enc_operand(e, cond);
            e.u32(then_bb.0);
            e.u32(else_bb.0);
        }
        Inst::Switch {
            val,
            default,
            cases,
        } => {
            e.u8(15);
            enc_operand(e, val);
            e.u32(default.0);
            e.u32(cases.len() as u32);
            for (c, b) in cases {
                e.i64(*c);
                e.u32(b.0);
            }
        }
        Inst::Ret { val } => {
            e.u8(16);
            match val {
                None => e.u8(0),
                Some(v) => {
                    e.u8(1);
                    enc_operand(e, v);
                }
            }
        }
        Inst::Unreachable => e.u8(17),
    }
}

fn bin_from(v: u8) -> Result<BinOp, DecodeError> {
    use BinOp::*;
    const ALL: [BinOp; 17] = [
        Add, Sub, Mul, UDiv, SDiv, URem, SRem, And, Or, Xor, Shl, LShr, AShr, FAdd, FSub, FMul,
        FDiv,
    ];
    ALL.get(v as usize)
        .copied()
        .ok_or(DecodeError::BadTag("binop", v))
}

fn pred_from(v: u8) -> Result<IPred, DecodeError> {
    use IPred::*;
    const ALL: [IPred; 10] = [Eq, Ne, ULt, ULe, UGt, UGe, SLt, SLe, SGt, SGe];
    ALL.get(v as usize)
        .copied()
        .ok_or(DecodeError::BadTag("pred", v))
}

fn cast_from(v: u8) -> Result<CastOp, DecodeError> {
    use CastOp::*;
    const ALL: [CastOp; 8] = [
        Bitcast, Trunc, ZExt, SExt, PtrToInt, IntToPtr, SiToFp, FpToSi,
    ];
    ALL.get(v as usize)
        .copied()
        .ok_or(DecodeError::BadTag("cast", v))
}

fn atomic_from(v: u8) -> Result<AtomicOp, DecodeError> {
    use AtomicOp::*;
    const ALL: [AtomicOp; 3] = [Add, Sub, Xchg];
    ALL.get(v as usize)
        .copied()
        .ok_or(DecodeError::BadTag("atomic", v))
}

fn dec_inst(d: &mut Dec) -> Result<Inst, DecodeError> {
    Ok(match d.u8()? {
        0 => Inst::Bin {
            op: bin_from(d.u8()?)?,
            lhs: dec_operand(d)?,
            rhs: dec_operand(d)?,
        },
        1 => Inst::ICmp {
            pred: pred_from(d.u8()?)?,
            lhs: dec_operand(d)?,
            rhs: dec_operand(d)?,
        },
        2 => Inst::Select {
            cond: dec_operand(d)?,
            tval: dec_operand(d)?,
            fval: dec_operand(d)?,
        },
        3 => Inst::Cast {
            op: cast_from(d.u8()?)?,
            val: dec_operand(d)?,
            to: TypeId(d.u32()?),
        },
        4 => Inst::Gep {
            base: dec_operand(d)?,
            indices: dec_operands(d)?,
        },
        5 => Inst::Load {
            ptr: dec_operand(d)?,
        },
        6 => Inst::Store {
            val: dec_operand(d)?,
            ptr: dec_operand(d)?,
        },
        7 => Inst::Alloca {
            ty: TypeId(d.u32()?),
            count: dec_operand(d)?,
        },
        8 => {
            let callee = match d.u8()? {
                0 => Callee::Direct(FuncId(d.u32()?)),
                1 => Callee::External(ExternId(d.u32()?)),
                2 => Callee::Indirect(dec_operand(d)?),
                3 => {
                    let name = d.str()?;
                    Callee::Intrinsic(
                        Intrinsic::from_name(&name).ok_or(DecodeError::BadTag("intrinsic", 0))?,
                    )
                }
                t => return Err(DecodeError::BadTag("callee", t)),
            };
            Inst::Call {
                callee,
                args: dec_operands(d)?,
            }
        }
        9 => {
            let ty = TypeId(d.u32()?);
            let n = d.count()?;
            let mut incomings = Vec::with_capacity(n);
            for _ in 0..n {
                let b = BlockId(d.u32()?);
                incomings.push((b, dec_operand(d)?));
            }
            Inst::Phi { incomings, ty }
        }
        10 => Inst::AtomicRmw {
            op: atomic_from(d.u8()?)?,
            ptr: dec_operand(d)?,
            val: dec_operand(d)?,
        },
        11 => Inst::CmpXchg {
            ptr: dec_operand(d)?,
            expected: dec_operand(d)?,
            new: dec_operand(d)?,
        },
        12 => Inst::Fence,
        13 => Inst::Br {
            target: BlockId(d.u32()?),
        },
        14 => Inst::CondBr {
            cond: dec_operand(d)?,
            then_bb: BlockId(d.u32()?),
            else_bb: BlockId(d.u32()?),
        },
        15 => {
            let val = dec_operand(d)?;
            let default = BlockId(d.u32()?);
            let n = d.count()?;
            let mut cases = Vec::with_capacity(n);
            for _ in 0..n {
                let c = d.i64()?;
                cases.push((c, BlockId(d.u32()?)));
            }
            Inst::Switch {
                val,
                default,
                cases,
            }
        }
        16 => Inst::Ret {
            val: match d.u8()? {
                0 => None,
                _ => Some(dec_operand(d)?),
            },
        },
        17 => Inst::Unreachable,
        t => return Err(DecodeError::BadTag("inst", t)),
    })
}

fn enc_type(e: &mut Enc, t: &Type) {
    match t {
        Type::Void => e.u8(0),
        Type::Int(w) => {
            e.u8(1);
            e.u8(*w);
        }
        Type::F64 => e.u8(2),
        Type::Ptr(p) => {
            e.u8(3);
            e.u32(p.0);
        }
        Type::Array(el, n) => {
            e.u8(4);
            e.u32(el.0);
            e.u64(*n);
        }
        Type::Struct(idx) => {
            e.u8(5);
            e.u32(*idx);
        }
        Type::Func {
            ret,
            params,
            vararg,
        } => {
            e.u8(6);
            e.u32(ret.0);
            e.u32(params.len() as u32);
            for p in params {
                e.u32(p.0);
            }
            e.u8(*vararg as u8);
        }
    }
}

fn dec_type(d: &mut Dec) -> Result<Type, DecodeError> {
    Ok(match d.u8()? {
        0 => Type::Void,
        1 => Type::Int(d.u8()?),
        2 => Type::F64,
        3 => Type::Ptr(TypeId(d.u32()?)),
        4 => {
            let el = TypeId(d.u32()?);
            Type::Array(el, d.u64()?)
        }
        5 => Type::Struct(d.u32()?),
        6 => {
            let ret = TypeId(d.u32()?);
            let n = d.count()?;
            let mut params = Vec::with_capacity(n);
            for _ in 0..n {
                params.push(TypeId(d.u32()?));
            }
            Type::Func {
                ret,
                params,
                vararg: d.u8()? != 0,
            }
        }
        t => return Err(DecodeError::BadTag("type", t)),
    })
}

/// Encodes a module into its binary bytecode form.
pub fn encode_module(m: &Module) -> Vec<u8> {
    let mut e = Enc { buf: Vec::new() };
    e.buf.extend_from_slice(MAGIC);
    e.str(&m.name);

    // Types: the table is reconstructed positionally, so we re-intern in
    // declaration order on decode.
    e.u32(m.types.structs.len() as u32);
    for s in &m.types.structs {
        e.str(&s.name);
        e.u8(s.opaque as u8);
        e.u32(s.fields.len() as u32);
        for f in &s.fields {
            e.u32(f.0);
        }
    }
    e.u32(m.types.len() as u32);
    for i in 0..m.types.len() {
        enc_type(&mut e, m.types.get(TypeId(i as u32)));
    }

    e.u32(m.globals.len() as u32);
    for g in &m.globals {
        e.str(&g.name);
        e.u32(g.ty.0);
        e.u8(g.is_const as u8);
        match &g.init {
            GlobalInit::Zero => e.u8(0),
            GlobalInit::Bytes(b) => {
                e.u8(1);
                e.bytes(b);
            }
            GlobalInit::Relocated { bytes, relocs } => {
                e.u8(2);
                e.bytes(bytes);
                e.u32(relocs.len() as u32);
                for (off, t) in relocs {
                    e.u64(*off);
                    match t {
                        RelocTarget::Func(n) => {
                            e.u8(0);
                            e.str(n);
                        }
                        RelocTarget::Extern(n) => {
                            e.u8(1);
                            e.str(n);
                        }
                        RelocTarget::Global(n) => {
                            e.u8(2);
                            e.str(n);
                        }
                    }
                }
            }
        }
    }

    e.u32(m.externs.len() as u32);
    for x in &m.externs {
        e.str(&x.name);
        e.u32(x.ty.0);
    }

    e.u32(m.allocators.len() as u32);
    for a in &m.allocators {
        e.str(&a.name);
        e.u8(matches!(a.kind, AllocKind::Pool) as u8);
        e.str(&a.alloc_fn);
        e.opt_str(&a.dealloc_fn);
        e.opt_str(&a.pool_create_fn);
        e.opt_str(&a.pool_destroy_fn);
        match a.size {
            SizeSpec::Arg(n) => {
                e.u8(0);
                e.u32(n as u32);
            }
            SizeSpec::PoolObjectSize => e.u8(1),
            SizeSpec::Const(c) => {
                e.u8(2);
                e.u64(c);
            }
        }
        e.opt_str(&a.size_fn);
        e.opt_u32(a.pool_arg.map(|p| p as u32));
        e.opt_str(&a.backed_by);
    }

    e.u32(m.funcs.len() as u32);
    for f in &m.funcs {
        e.str(&f.name);
        e.u32(f.ty.0);
        e.u8(matches!(f.linkage, Linkage::Public) as u8);
        e.u32(f.value_types.len() as u32);
        for (i, vt) in f.value_types.iter().enumerate() {
            e.u32(vt.0);
            match f.value_defs[i] {
                ValueDef::Param(p) => {
                    e.u8(0);
                    e.u32(p);
                }
                ValueDef::Inst(ii) => {
                    e.u8(1);
                    e.u32(ii.0);
                }
            }
            e.opt_str(&f.value_names[i]);
        }
        e.u32(f.insts.len() as u32);
        for (i, inst) in f.insts.iter().enumerate() {
            enc_inst(&mut e, inst);
            e.opt_u32(f.inst_results[i].map(|v| v.0));
        }
        e.u32(f.blocks.len() as u32);
        for b in &f.blocks {
            e.str(&b.name);
            e.u32(b.insts.len() as u32);
            for i in &b.insts {
                e.u32(i.0);
            }
        }
        e.u32(f.sig_asserted_calls.len() as u32);
        for i in &f.sig_asserted_calls {
            e.u32(i.0);
        }
    }

    e.opt_u32(m.entry.map(|f| f.0));

    match &m.pool_annotations {
        None => e.u8(0),
        Some(pa) => {
            e.u8(1);
            e.u32(pa.metapools.len() as u32);
            for mp in &pa.metapools {
                e.str(&mp.name);
                e.u8(mp.type_homogeneous as u8);
                e.u8(mp.complete as u8);
                e.opt_u32(mp.elem_type.map(|t| t.0));
                e.u32(mp.points_to.len() as u32);
                for (c, t) in &mp.points_to {
                    e.u32(*c);
                    e.u32(*t);
                }
                e.u8(mp.fields_collapsed as u8);
                e.u8(mp.userspace as u8);
            }
            e.u32(pa.value_pools.len() as u32);
            for vp in &pa.value_pools {
                e.u32(vp.len() as u32);
                for p in vp {
                    e.opt_u32(*p);
                }
            }
            e.u32(pa.value_cells.len() as u32);
            for vc in &pa.value_cells {
                e.u32(vc.len() as u32);
                for c in vc {
                    e.u32(*c);
                }
            }
            e.u32(pa.global_pools.len() as u32);
            for p in &pa.global_pools {
                e.opt_u32(*p);
            }
            e.u32(pa.func_sets.len() as u32);
            for set in &pa.func_sets {
                e.u32(set.len() as u32);
                for n in set {
                    e.str(n);
                }
            }
            e.u32(pa.call_sets.len() as u32);
            for (f, i, s) in &pa.call_sets {
                e.u32(*f);
                e.u32(*i);
                e.u32(*s);
            }
        }
    }

    e.buf
}

/// Decodes a module from its binary bytecode form.
pub fn decode_module(data: &[u8]) -> Result<Module, DecodeError> {
    let mut d = Dec { buf: data, pos: 0 };
    if d.take(MAGIC.len())? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let name = d.str()?;
    let mut m = Module::new(&name);

    let nstructs = d.count()?;
    let mut struct_defs = Vec::with_capacity(nstructs);
    for _ in 0..nstructs {
        let name = d.str()?;
        let opaque = d.u8()? != 0;
        let n = d.count()?;
        let mut fields = Vec::with_capacity(n);
        for _ in 0..n {
            fields.push(TypeId(d.u32()?));
        }
        struct_defs.push(StructDef {
            name,
            fields,
            opaque,
        });
    }
    let ntypes = d.count()?;
    let mut table = TypeTable::new();
    table.structs = struct_defs;
    for i in 0..ntypes {
        let t = dec_type(&mut d)?;
        let id = table.raw_push(t);
        debug_assert_eq!(id.0 as usize, i);
    }
    table.rebuild_struct_index();
    m.types = table;

    let nglobals = d.count()?;
    for _ in 0..nglobals {
        let name = d.str()?;
        let ty = TypeId(d.u32()?);
        let is_const = d.u8()? != 0;
        let init = match d.u8()? {
            0 => GlobalInit::Zero,
            1 => GlobalInit::Bytes(d.bytes()?),
            2 => {
                let bytes = d.bytes()?;
                let n = d.count()?;
                let mut relocs = Vec::with_capacity(n);
                for _ in 0..n {
                    let off = d.u64()?;
                    let t = match d.u8()? {
                        0 => RelocTarget::Func(d.str()?),
                        1 => RelocTarget::Extern(d.str()?),
                        2 => RelocTarget::Global(d.str()?),
                        t => return Err(DecodeError::BadTag("reloc", t)),
                    };
                    relocs.push((off, t));
                }
                GlobalInit::Relocated { bytes, relocs }
            }
            t => return Err(DecodeError::BadTag("init", t)),
        };
        m.add_global(&name, ty, init, is_const);
    }

    let nexterns = d.count()?;
    for _ in 0..nexterns {
        let name = d.str()?;
        let ty = TypeId(d.u32()?);
        m.add_extern(&name, ty);
    }

    let nallocs = d.count()?;
    for _ in 0..nallocs {
        let name = d.str()?;
        let kind = if d.u8()? != 0 {
            AllocKind::Pool
        } else {
            AllocKind::Ordinary
        };
        let alloc_fn = d.str()?;
        let dealloc_fn = d.opt_str()?;
        let pool_create_fn = d.opt_str()?;
        let pool_destroy_fn = d.opt_str()?;
        let size = match d.u8()? {
            0 => SizeSpec::Arg(d.u32()? as usize),
            1 => SizeSpec::PoolObjectSize,
            2 => SizeSpec::Const(d.u64()?),
            t => return Err(DecodeError::BadTag("sizespec", t)),
        };
        let size_fn = d.opt_str()?;
        let pool_arg = d.opt_u32()?.map(|p| p as usize);
        let backed_by = d.opt_str()?;
        m.declare_allocator(AllocatorDecl {
            name,
            kind,
            alloc_fn,
            dealloc_fn,
            pool_create_fn,
            pool_destroy_fn,
            size,
            size_fn,
            pool_arg,
            backed_by,
        });
    }

    let nfuncs = d.count()?;
    for _ in 0..nfuncs {
        let fname = d.str()?;
        let fty = TypeId(d.u32()?);
        let linkage = if d.u8()? != 0 {
            Linkage::Public
        } else {
            Linkage::Internal
        };
        let mut f = Function::new(&fname, fty, linkage);
        let nvals = d.count()?;
        for _ in 0..nvals {
            let vt = TypeId(d.u32()?);
            let def = match d.u8()? {
                0 => ValueDef::Param(d.u32()?),
                1 => ValueDef::Inst(InstId(d.u32()?)),
                t => return Err(DecodeError::BadTag("valuedef", t)),
            };
            let v = f.new_value(vt, def);
            f.value_names[v.0 as usize] = d.opt_str()?;
            if let ValueDef::Param(_) = def {
                f.params.push(v);
            }
        }
        let ninsts = d.count()?;
        for _ in 0..ninsts {
            let inst = dec_inst(&mut d)?;
            f.insts.push(inst);
            f.inst_results.push(d.opt_u32()?.map(ValueId));
        }
        let nblocks = d.count()?;
        for _ in 0..nblocks {
            let bname = d.str()?;
            let n = d.count()?;
            let mut insts = Vec::with_capacity(n);
            for _ in 0..n {
                insts.push(InstId(d.u32()?));
            }
            f.blocks.push(Block { name: bname, insts });
        }
        let nsig = d.count()?;
        for _ in 0..nsig {
            f.sig_asserted_calls.push(InstId(d.u32()?));
        }
        m.push_decoded_function(f);
    }

    m.entry = d.opt_u32()?.map(FuncId);

    if d.u8()? != 0 {
        let nmp = d.count()?;
        let mut pa = PoolAnnotations::default();
        for _ in 0..nmp {
            let name = d.str()?;
            let th = d.u8()? != 0;
            let complete = d.u8()? != 0;
            let elem_type = d.opt_u32()?.map(TypeId);
            let np = d.count()?;
            let mut points_to = Vec::with_capacity(np);
            for _ in 0..np {
                let c = d.u32()?;
                let t = d.u32()?;
                points_to.push((c, t));
            }
            let fields_collapsed = d.u8()? != 0;
            let userspace = d.u8()? != 0;
            pa.metapools.push(MetaPoolDesc {
                name,
                type_homogeneous: th,
                complete,
                elem_type,
                points_to,
                fields_collapsed,
                userspace,
            });
        }
        let nf = d.count()?;
        for _ in 0..nf {
            let nv = d.count()?;
            let mut vp = Vec::with_capacity(nv);
            for _ in 0..nv {
                vp.push(d.opt_u32()?);
            }
            pa.value_pools.push(vp);
        }
        let nfc = d.count()?;
        for _ in 0..nfc {
            let nv = d.count()?;
            let mut vc = Vec::with_capacity(nv);
            for _ in 0..nv {
                vc.push(d.u32()?);
            }
            pa.value_cells.push(vc);
        }
        let ng = d.count()?;
        for _ in 0..ng {
            pa.global_pools.push(d.opt_u32()?);
        }
        let ns = d.count()?;
        for _ in 0..ns {
            let n = d.count()?;
            let mut set = Vec::with_capacity(n);
            for _ in 0..n {
                set.push(d.str()?);
            }
            pa.func_sets.push(set);
        }
        let nc = d.count()?;
        for _ in 0..nc {
            let f = d.u32()?;
            let i = d.u32()?;
            let s = d.u32()?;
            pa.call_sets.push((f, i, s));
        }
        m.pool_annotations = Some(pa);
    }

    Ok(m)
}

/// A 64-bit keyed integrity tag over `data` (see module docs: an integrity
/// *simulation*, not a cryptographic MAC).
pub fn sign(key: u64, data: &[u8]) -> u64 {
    let mut h = key ^ 0xcbf2_9ce4_8422_2325;
    let mut mix = |b: u64| {
        h ^= b;
        h = h.wrapping_mul(0x1000_0000_01b3);
        h ^= h >> 29;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    };
    for chunk in data.chunks(8) {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        mix(u64::from_le_bytes(b));
    }
    mix(data.len() as u64);
    mix(key);
    h
}

/// Verifies an integrity tag produced by [`sign`].
pub fn verify_signature(key: u64, data: &[u8], tag: u64) -> bool {
    sign(key, data) == tag
}

/// A bytecode file packaged with its signature, as cached on disk together
/// with translated native code (paper §3.4).
#[derive(Clone, Debug)]
pub struct SignedModule {
    /// Encoded bytecode.
    pub bytecode: Vec<u8>,
    /// Integrity tag over the bytecode.
    pub tag: u64,
}

impl SignedModule {
    /// Encodes and signs `m` with `key`.
    pub fn seal(m: &Module, key: u64) -> Self {
        let bytecode = encode_module(m);
        let tag = sign(key, &bytecode);
        SignedModule { bytecode, tag }
    }

    /// Verifies the signature and decodes the module.
    pub fn open(&self, key: u64) -> Result<Module, DecodeError> {
        if !verify_signature(key, &self.bytecode, self.tag) {
            return Err(DecodeError::BadSignature);
        }
        decode_module(&self.bytecode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;
    use crate::print::print_module;

    const SRC: &str = r#"
module "codec"
struct %node = { i64, %node* }
const global @msg : [4 x i8] = bytes x68690000
global @tbl : [2 x i64] = zero
declare @mystery : (i8*) -> i32
allocator ordinary "kmalloc" alloc=@km size=arg0
declare @km : (i64) -> i8*
func public @sum(%n: i64) : i64 {
entry:
  br loop
loop:
  %i:i64 = phi i64 [entry: 0:i64, loop: %next]
  %next:i64 = add %i, 1:i64
  %done:i1 = icmp uge %next, %n
  condbr %done, out, loop
out:
  %t:i64 = call $sva.get.timer() : i64
  %r:i64 = add %next, %t
  ret %r
}
entry @sum
"#;

    #[test]
    fn encode_decode_round_trip() {
        let m1 = parse_module(SRC).unwrap();
        let bytes = encode_module(&m1);
        let m2 = decode_module(&bytes).unwrap();
        assert_eq!(print_module(&m1), print_module(&m2));
        assert_eq!(m2.entry, m1.entry);
        assert_eq!(m2.allocators.len(), 1);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        assert_eq!(decode_module(b"NOTSVA").unwrap_err(), DecodeError::BadMagic);
    }

    #[test]
    fn decode_rejects_truncation() {
        let m = parse_module(SRC).unwrap();
        let bytes = encode_module(&m);
        for cut in [7, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_module(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn decode_rejects_counts_the_input_cannot_hold() {
        // A header claiming u32::MAX structs must fail before anything is
        // sized by the count.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(b'm');
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 64]);
        assert_eq!(decode_module(&bytes).unwrap_err(), DecodeError::Truncated);
        // Likewise a string length past the end of the input.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_module(&bytes).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn signature_round_trip_and_tamper() {
        let m = parse_module(SRC).unwrap();
        let sealed = SignedModule::seal(&m, 0xfeed);
        assert!(sealed.open(0xfeed).is_ok());
        // Wrong key.
        assert_eq!(sealed.open(0xdead).unwrap_err(), DecodeError::BadSignature);
        // Tampered byte.
        let mut bad = sealed.clone();
        let mid = bad.bytecode.len() / 2;
        bad.bytecode[mid] ^= 1;
        assert_eq!(bad.open(0xfeed).unwrap_err(), DecodeError::BadSignature);
    }

    #[test]
    fn annotations_survive_encoding() {
        let mut m = parse_module(SRC).unwrap();
        let i64t = m.types.i64();
        let mut pa = PoolAnnotations::default();
        pa.metapools.push(MetaPoolDesc {
            name: "MP0".into(),
            type_homogeneous: true,
            complete: false,
            elem_type: Some(i64t),
            points_to: vec![(0, 0)],
            fields_collapsed: false,
            userspace: false,
        });
        pa.value_pools = vec![vec![None, Some(0)]];
        pa.global_pools = vec![Some(0), None];
        pa.func_sets = vec![vec!["sum".into()]];
        m.pool_annotations = Some(pa);
        let m2 = decode_module(&encode_module(&m)).unwrap();
        let pa2 = m2.pool_annotations.unwrap();
        assert_eq!(pa2.metapools.len(), 1);
        assert!(pa2.metapools[0].type_homogeneous);
        assert_eq!(pa2.value_pools[0][1], Some(0));
        assert_eq!(pa2.func_sets[0][0], "sum");
    }

    #[test]
    fn encoding_is_deterministic() {
        let m = parse_module(SRC).unwrap();
        assert_eq!(encode_module(&m), encode_module(&m));
    }

    #[test]
    fn decode_rejects_wrong_version_byte() {
        let m = parse_module(SRC).unwrap();
        let mut bytes = encode_module(&m);
        // The last magic byte is the format version; a verifier built for
        // version 1 must refuse anything else.
        bytes[MAGIC.len() - 1] ^= 0x7f;
        assert_eq!(decode_module(&bytes).unwrap_err(), DecodeError::BadMagic);
    }

    #[test]
    fn empty_module_round_trips() {
        let m1 = parse_module("module \"empty\"").unwrap();
        let m2 = decode_module(&encode_module(&m1)).unwrap();
        assert_eq!(print_module(&m1), print_module(&m2));
        assert!(m2.entry.is_none());
        assert!(m2.pool_annotations.is_none());
    }

    #[test]
    fn cells_and_call_sets_survive_encoding() {
        let mut m = parse_module(SRC).unwrap();
        let mut pa = PoolAnnotations::default();
        pa.metapools.push(MetaPoolDesc {
            name: "MP0".into(),
            type_homogeneous: false,
            complete: true,
            elem_type: None,
            points_to: vec![(0, 0), (1, 0)],
            fields_collapsed: true,
            userspace: true,
        });
        pa.value_cells = vec![vec![0, 3]];
        pa.call_sets = vec![(0, 7, 2)];
        m.pool_annotations = Some(pa);
        let pa2 = decode_module(&encode_module(&m))
            .unwrap()
            .pool_annotations
            .unwrap();
        assert_eq!(pa2.metapools[0].points_to, vec![(0, 0), (1, 0)]);
        assert!(pa2.metapools[0].fields_collapsed);
        assert!(pa2.metapools[0].userspace);
        assert_eq!(pa2.value_cells[0][1], 3);
        assert_eq!(pa2.call_sets, vec![(0, 7, 2)]);
    }

    #[test]
    fn signature_covers_annotations_not_just_code() {
        // Tampering with the *annotation* region of the bytecode must break
        // the signature too — the annotations are the proof being shipped.
        let mut m = parse_module(SRC).unwrap();
        let mut pa = PoolAnnotations::default();
        pa.metapools.push(MetaPoolDesc {
            name: "MP0".into(),
            type_homogeneous: true,
            complete: true,
            elem_type: None,
            points_to: vec![],
            fields_collapsed: false,
            userspace: false,
        });
        m.pool_annotations = Some(pa);
        let sealed = SignedModule::seal(&m, 0x1234);
        // The annotation bytes live at the tail of the image; flip one late
        // byte and the signature check must fail.
        let mut bad = sealed.clone();
        let n = bad.bytecode.len();
        bad.bytecode[n - 2] ^= 1;
        assert_eq!(bad.open(0x1234).unwrap_err(), DecodeError::BadSignature);
    }
}
