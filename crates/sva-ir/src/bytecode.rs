//! On-disk "bytecode" encoding of SVA modules, plus digital signing.
//!
//! SVA code is shipped to end-user systems as virtual object code
//! (paper §2). When translation happens offline, the cached native code and
//! the bytecode are *digitally signed together* so the SVM can check their
//! integrity at load time (paper §3.4). This module provides:
//!
//! * [`encode_module`] / [`decode_module`] — a compact, versioned binary
//!   encoding of a whole [`Module`] including its pool annotations, built
//!   on the shared [`crate::codec`] with `u32` length prefixes, and
//! * [`sign`] / [`verify_signature`] — a keyed integrity tag.
//!
//! The tag is a keyed sponge over a 64-bit mixing permutation — an
//! *integrity simulation*, not a cryptographic MAC; a production SVM would
//! use a real signature scheme. The structure (sign bytecode + native cache
//! together, verify before use) is what the paper specifies and is what the
//! SVM in `sva-vm` enforces.

use crate::codec::{CodecError, Reader, Writer};
use crate::inst::{AtomicOp, BinOp, Callee, CastOp, IPred, Inst, InstId, Intrinsic, Operand};
use crate::module::{
    AllocKind, AllocatorDecl, Block, BlockId, ExternId, FuncId, Function, GlobalId, GlobalInit,
    Linkage, MetaPoolDesc, Module, PoolAnnotations, RelocTarget, SizeSpec, ValueDef, ValueId,
};
use crate::types::{StructDef, Type, TypeId, TypeTable};

/// Magic bytes at the start of every bytecode file.
pub const MAGIC: &[u8; 6] = b"SVABC\x01";

/// Bytecode writes its length prefixes and element counts as `u32`.
type BytecodeWriter = Writer<4>;
type BytecodeReader<'a> = Reader<'a, 4>;

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

/// Bytecode is not framed and never calls `finish`, so only the reader's
/// own errors reach this; a count the input cannot hold is truncation.
impl From<CodecError> for DecodeError {
    fn from(e: CodecError) -> DecodeError {
        match e {
            CodecError::Invalid { what, value } => DecodeError::BadTag(what, value as u8),
            CodecError::BadUtf8 => DecodeError::BadString,
            CodecError::BadMagic(_) | CodecError::BadVersion { .. } => DecodeError::BadMagic,
            CodecError::Corrupt { .. } => DecodeError::BadSignature,
            CodecError::Truncated { .. } | CodecError::Count { .. } | CodecError::Trailing(_) => {
                DecodeError::Truncated
            }
        }
    }
}

fn bad_tag(what: &'static str, tag: u8) -> CodecError {
    CodecError::Invalid {
        what,
        value: tag as u64,
    }
}

/// Smallest encodings, the `min_elem_bytes` of each count: an operand is
/// a tag and at least a `u32`; a string is at least its prefix.
const OPERAND_MIN: usize = 5;
const STR_MIN: usize = 4;

fn enc_operand(e: &mut BytecodeWriter, op: &Operand) {
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

fn dec_operand(d: &mut BytecodeReader) -> Result<Operand, CodecError> {
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
        t => return Err(bad_tag("operand", t)),
    })
}

fn enc_operands(e: &mut BytecodeWriter, ops: &[Operand]) {
    e.seq(ops, enc_operand);
}

fn dec_operands(d: &mut BytecodeReader) -> Result<Vec<Operand>, CodecError> {
    d.vec(OPERAND_MIN, dec_operand)
}

fn enc_inst(e: &mut BytecodeWriter, inst: &Inst) {
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
            e.seq(incomings, |e, (b, v)| {
                e.u32(b.0);
                enc_operand(e, v);
            });
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
            e.seq(cases, |e, (c, b)| {
                e.i64(*c);
                e.u32(b.0);
            });
        }
        Inst::Ret { val } => {
            e.u8(16);
            e.opt(val.as_ref(), enc_operand);
        }
        Inst::Unreachable => e.u8(17),
    }
}

/// The enum value `v` indexes in `all`, or a tag error naming `what`.
fn enum_from<T: Copy>(all: &[T], what: &'static str, v: u8) -> Result<T, CodecError> {
    all.get(v as usize).copied().ok_or_else(|| bad_tag(what, v))
}

fn bin_from(v: u8) -> Result<BinOp, CodecError> {
    use BinOp::*;
    const ALL: [BinOp; 17] = [
        Add, Sub, Mul, UDiv, SDiv, URem, SRem, And, Or, Xor, Shl, LShr, AShr, FAdd, FSub, FMul,
        FDiv,
    ];
    enum_from(&ALL, "binop", v)
}

fn pred_from(v: u8) -> Result<IPred, CodecError> {
    use IPred::*;
    const ALL: [IPred; 10] = [Eq, Ne, ULt, ULe, UGt, UGe, SLt, SLe, SGt, SGe];
    enum_from(&ALL, "pred", v)
}

fn cast_from(v: u8) -> Result<CastOp, CodecError> {
    use CastOp::*;
    const ALL: [CastOp; 8] = [
        Bitcast, Trunc, ZExt, SExt, PtrToInt, IntToPtr, SiToFp, FpToSi,
    ];
    enum_from(&ALL, "cast", v)
}

fn atomic_from(v: u8) -> Result<AtomicOp, CodecError> {
    use AtomicOp::*;
    enum_from(&[Add, Sub, Xchg], "atomic", v)
}

fn dec_inst(d: &mut BytecodeReader) -> Result<Inst, CodecError> {
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
                3 => Callee::Intrinsic(
                    Intrinsic::from_name(d.str()?).ok_or_else(|| bad_tag("intrinsic", 0))?,
                ),
                t => return Err(bad_tag("callee", t)),
            };
            Inst::Call {
                callee,
                args: dec_operands(d)?,
            }
        }
        9 => Inst::Phi {
            ty: TypeId(d.u32()?),
            incomings: d.vec(4 + OPERAND_MIN, |d| {
                let b = BlockId(d.u32()?);
                Ok((b, dec_operand(d)?))
            })?,
        },
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
        15 => Inst::Switch {
            val: dec_operand(d)?,
            default: BlockId(d.u32()?),
            cases: d.vec(12, |d| Ok((d.i64()?, BlockId(d.u32()?))))?,
        },
        16 => Inst::Ret {
            val: d.opt(dec_operand)?,
        },
        17 => Inst::Unreachable,
        t => return Err(bad_tag("inst", t)),
    })
}

fn enc_type(e: &mut BytecodeWriter, t: &Type) {
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
            e.seq(params, |e, p| e.u32(p.0));
            e.bool(*vararg);
        }
    }
}

fn dec_type(d: &mut BytecodeReader) -> Result<Type, CodecError> {
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
        6 => Type::Func {
            ret: TypeId(d.u32()?),
            params: dec_ids(d, TypeId)?,
            vararg: d.bool()?,
        },
        t => return Err(bad_tag("type", t)),
    })
}

/// A counted list of `u32` ids.
fn dec_ids<T>(d: &mut BytecodeReader, id: impl Fn(u32) -> T) -> Result<Vec<T>, CodecError> {
    d.vec(4, |d| d.u32().map(&id))
}

fn enc_opt_str(e: &mut BytecodeWriter, s: &Option<String>) {
    e.opt(s.as_deref(), BytecodeWriter::str);
}

fn dec_opt_str(d: &mut BytecodeReader) -> Result<Option<String>, CodecError> {
    d.opt(|d| d.str().map(str::to_owned))
}

/// Encodes a module into its binary bytecode form.
pub fn encode_module(m: &Module) -> Vec<u8> {
    let mut e = BytecodeWriter::new();
    e.raw(MAGIC);
    e.str(&m.name);

    // Types: the table is reconstructed positionally, so we re-intern in
    // declaration order on decode.
    e.seq(&m.types.structs, |e, s| {
        e.str(&s.name);
        e.bool(s.opaque);
        e.seq(&s.fields, |e, f| e.u32(f.0));
    });
    e.prefix(m.types.len());
    for i in 0..m.types.len() {
        enc_type(&mut e, m.types.get(TypeId(i as u32)));
    }

    e.seq(&m.globals, |e, g| {
        e.str(&g.name);
        e.u32(g.ty.0);
        e.bool(g.is_const);
        match &g.init {
            GlobalInit::Zero => e.u8(0),
            GlobalInit::Bytes(b) => {
                e.u8(1);
                e.bytes(b);
            }
            GlobalInit::Relocated { bytes, relocs } => {
                e.u8(2);
                e.bytes(bytes);
                e.seq(relocs, |e, (off, t)| {
                    e.u64(*off);
                    let (tag, name) = match t {
                        RelocTarget::Func(n) => (0, n),
                        RelocTarget::Extern(n) => (1, n),
                        RelocTarget::Global(n) => (2, n),
                    };
                    e.u8(tag);
                    e.str(name);
                });
            }
        }
    });

    e.seq(&m.externs, |e, x| {
        e.str(&x.name);
        e.u32(x.ty.0);
    });

    e.seq(&m.allocators, |e, a| {
        e.str(&a.name);
        e.bool(matches!(a.kind, AllocKind::Pool));
        e.str(&a.alloc_fn);
        enc_opt_str(e, &a.dealloc_fn);
        enc_opt_str(e, &a.pool_create_fn);
        enc_opt_str(e, &a.pool_destroy_fn);
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
        enc_opt_str(e, &a.size_fn);
        e.opt(a.pool_arg, |e, p| e.u32(p as u32));
        enc_opt_str(e, &a.backed_by);
    });

    e.seq(&m.funcs, |e, f| {
        e.str(&f.name);
        e.u32(f.ty.0);
        e.bool(matches!(f.linkage, Linkage::Public));
        e.prefix(f.value_types.len());
        for (i, vt) in f.value_types.iter().enumerate() {
            e.u32(vt.0);
            let (tag, x) = match f.value_defs[i] {
                ValueDef::Param(p) => (0, p),
                ValueDef::Inst(ii) => (1, ii.0),
            };
            e.u8(tag);
            e.u32(x);
            enc_opt_str(e, &f.value_names[i]);
        }
        e.prefix(f.insts.len());
        for (i, inst) in f.insts.iter().enumerate() {
            enc_inst(e, inst);
            e.opt(f.inst_results[i], |e, v| e.u32(v.0));
        }
        e.seq(&f.blocks, |e, b| {
            e.str(&b.name);
            e.seq(&b.insts, |e, i| e.u32(i.0));
        });
        e.seq(&f.sig_asserted_calls, |e, i| e.u32(i.0));
    });

    e.opt(m.entry, |e, f| e.u32(f.0));

    e.opt(m.pool_annotations.as_ref(), |e, pa| {
        e.seq(&pa.metapools, |e, mp| {
            e.str(&mp.name);
            e.bool(mp.type_homogeneous);
            e.bool(mp.complete);
            e.opt(mp.elem_type, |e, t| e.u32(t.0));
            e.seq(&mp.points_to, |e, &(c, t)| {
                e.u32(c);
                e.u32(t);
            });
            e.bool(mp.fields_collapsed);
            e.bool(mp.userspace);
        });
        e.seq(&pa.value_pools, |e, vp| {
            e.seq(vp, |e, &p| e.opt(p, BytecodeWriter::u32))
        });
        e.seq(&pa.value_cells, |e, vc| e.seq(vc, |e, &c| e.u32(c)));
        e.seq(&pa.global_pools, |e, &p| e.opt(p, BytecodeWriter::u32));
        e.seq(&pa.func_sets, |e, set| e.seq(set, |e, n| e.str(n)));
        e.seq(&pa.call_sets, |e, &(f, i, s)| {
            e.u32(f);
            e.u32(i);
            e.u32(s);
        });
    });

    e.into_bytes()
}

/// Decodes a module from its binary bytecode form.
pub fn decode_module(data: &[u8]) -> Result<Module, DecodeError> {
    let mut d = BytecodeReader::new(data);
    if d.take(MAGIC.len())? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    decode_body(&mut d).map_err(DecodeError::from)
}

fn decode_body(d: &mut BytecodeReader) -> Result<Module, CodecError> {
    let mut m = Module::new(d.str()?);

    let mut table = TypeTable::new();
    table.structs = d.vec(2 * STR_MIN + 1, |d| {
        Ok(StructDef {
            name: d.str()?.to_owned(),
            opaque: d.bool()?,
            fields: dec_ids(d, TypeId)?,
        })
    })?;
    let ntypes = d.prefix(1)?;
    for i in 0..ntypes {
        let t = dec_type(d)?;
        let id = table.raw_push(t);
        debug_assert_eq!(id.0 as usize, i);
    }
    table.rebuild_struct_index();
    m.types = table;

    let nglobals = d.prefix(STR_MIN + 6)?;
    for _ in 0..nglobals {
        let name = d.str()?;
        let ty = TypeId(d.u32()?);
        let is_const = d.bool()?;
        let init = match d.u8()? {
            0 => GlobalInit::Zero,
            1 => GlobalInit::Bytes(d.bytes()?.to_vec()),
            2 => GlobalInit::Relocated {
                bytes: d.bytes()?.to_vec(),
                relocs: d.vec(9 + STR_MIN, |d| {
                    let off = d.u64()?;
                    let t = match d.u8()? {
                        0 => RelocTarget::Func(d.str()?.to_owned()),
                        1 => RelocTarget::Extern(d.str()?.to_owned()),
                        2 => RelocTarget::Global(d.str()?.to_owned()),
                        t => return Err(bad_tag("reloc", t)),
                    };
                    Ok((off, t))
                })?,
            },
            t => return Err(bad_tag("init", t)),
        };
        m.add_global(name, ty, init, is_const);
    }

    let nexterns = d.prefix(STR_MIN + 4)?;
    for _ in 0..nexterns {
        let name = d.str()?;
        let ty = TypeId(d.u32()?);
        m.add_extern(name, ty);
    }

    let nallocs = d.prefix(2 * STR_MIN + 8)?;
    for _ in 0..nallocs {
        let name = d.str()?.to_owned();
        let kind = if d.bool()? {
            AllocKind::Pool
        } else {
            AllocKind::Ordinary
        };
        let alloc_fn = d.str()?.to_owned();
        let dealloc_fn = dec_opt_str(d)?;
        let pool_create_fn = dec_opt_str(d)?;
        let pool_destroy_fn = dec_opt_str(d)?;
        let size = match d.u8()? {
            0 => SizeSpec::Arg(d.u32()? as usize),
            1 => SizeSpec::PoolObjectSize,
            2 => SizeSpec::Const(d.u64()?),
            t => return Err(bad_tag("sizespec", t)),
        };
        let size_fn = dec_opt_str(d)?;
        let pool_arg = d.opt(|d| d.u32())?.map(|p| p as usize);
        let backed_by = dec_opt_str(d)?;
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

    let nfuncs = d.prefix(STR_MIN + 21)?;
    for _ in 0..nfuncs {
        let fname = d.str()?;
        let fty = TypeId(d.u32()?);
        let linkage = if d.bool()? {
            Linkage::Public
        } else {
            Linkage::Internal
        };
        let mut f = Function::new(fname, fty, linkage);
        let nvals = d.prefix(10)?;
        for _ in 0..nvals {
            let vt = TypeId(d.u32()?);
            let def = match d.u8()? {
                0 => ValueDef::Param(d.u32()?),
                1 => ValueDef::Inst(InstId(d.u32()?)),
                t => return Err(bad_tag("valuedef", t)),
            };
            let v = f.new_value(vt, def);
            f.value_names[v.0 as usize] = dec_opt_str(d)?;
            if let ValueDef::Param(_) = def {
                f.params.push(v);
            }
        }
        let ninsts = d.prefix(2)?;
        for _ in 0..ninsts {
            let inst = dec_inst(d)?;
            f.insts.push(inst);
            f.inst_results.push(d.opt(|d| d.u32())?.map(ValueId));
        }
        f.blocks = d.vec(2 * STR_MIN, |d| {
            Ok(Block {
                name: d.str()?.to_owned(),
                insts: dec_ids(d, InstId)?,
            })
        })?;
        f.sig_asserted_calls = dec_ids(d, InstId)?;
        m.push_decoded_function(f);
    }

    m.entry = d.opt(|d| d.u32())?.map(FuncId);

    m.pool_annotations = d.opt(|d| {
        Ok(PoolAnnotations {
            metapools: d.vec(STR_MIN + 9, |d| {
                Ok(MetaPoolDesc {
                    name: d.str()?.to_owned(),
                    type_homogeneous: d.bool()?,
                    complete: d.bool()?,
                    elem_type: d.opt(|d| d.u32())?.map(TypeId),
                    points_to: d.vec(8, |d| Ok((d.u32()?, d.u32()?)))?,
                    fields_collapsed: d.bool()?,
                    userspace: d.bool()?,
                })
            })?,
            value_pools: d.vec(4, |d| d.vec(1, |d| d.opt(|d| d.u32())))?,
            value_cells: d.vec(4, |d| dec_ids(d, |c| c))?,
            global_pools: d.vec(1, |d| d.opt(|d| d.u32()))?,
            func_sets: d.vec(4, |d| d.vec(STR_MIN, |d| d.str().map(str::to_owned)))?,
            call_sets: d.vec(12, |d| Ok((d.u32()?, d.u32()?, d.u32()?)))?,
        })
    })?;

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
