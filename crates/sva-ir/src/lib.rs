//! # SVA-Core: the Secure Virtual Architecture instruction set
//!
//! This crate implements the virtual, low-level, *typed* instruction set that
//! all code on an SVA system is expressed in (paper §3.1–§3.2). It plays the
//! role the LLVM IR played in the original system:
//!
//! * a single, compact, RISC-like, load/store instruction set,
//! * an explicit control-flow graph per function (no computed branches),
//! * an "infinite" virtual register set in SSA form,
//! * a type system covering integers, pointers, arrays, structs and
//!   functions, with explicit cast instructions for unsafe languages,
//! * explicit heap allocation/deallocation through declared allocator
//!   functions, and
//! * the SVA-OS and safety-check operations as [`Intrinsic`]s.
//!
//! The crate provides:
//!
//! * [`Module`], [`Function`] and friends — arena-based IR containers,
//! * [`build::FunctionBuilder`] — an ergonomic way to emit IR,
//! * [`parse::parse_module`] / [`print::print_module`] — the textual assembly format,
//! * [`bytecode`] — the on-disk "bytecode" encoding with digital signing,
//! * [`codec`] — the bounded reader, writer and container header every
//!   wire format (bytecode here, machine images in `sva-vm`) is built on,
//! * [`verify::verify_module`] — the structural and type verifier.
//!
//! Nothing in this crate depends on the pointer analysis or the run-time
//! checks; those live in `sva-analysis`, `sva-core` and `sva-rt`.

pub mod build;
pub mod bytecode;
pub mod codec;
pub mod inst;
pub mod module;
pub mod parse;
pub mod print;
pub mod types;
pub mod verify;

pub use inst::{AtomicOp, BinOp, Callee, CastOp, IPred, Inst, InstId, Intrinsic, Operand};
pub use module::{
    AllocKind, AllocatorDecl, Block, BlockId, ExternDecl, ExternId, FuncId, Function, Global,
    GlobalId, GlobalInit, Linkage, MetaPoolDesc, Module, PoolAnnotations, RelocTarget, SizeSpec,
    ValueDef, ValueId,
};
pub use types::{StructDef, Type, TypeId, TypeTable};
