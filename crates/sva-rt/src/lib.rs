//! # SVA run-time: metapools and run-time safety checks
//!
//! This crate is the run-time half of the SVA safety strategy (paper
//! §4.3–§4.5 and Table 3). Each *metapool* — the run-time representation of
//! one points-to-graph partition — records the ranges of all registered
//! objects in one registry: a sorted range index answered by a singleton
//! test, a two-line MRU and a binary search, or, as the ablation baseline,
//! the paper's **splay tree**. The checks the Secure Virtual Machine
//! performs against that registry are:
//!
//! * **bounds check** (`boundscheck`): an indexing result must stay inside
//!   the object containing the source pointer;
//! * **load-store check** (`lscheck`): a pointer loaded from or cast within
//!   a non-type-homogeneous pool must point into *some* registered object of
//!   the correct metapool;
//! * **indirect call check** (`funccheck`): the callee must be in the call
//!   graph's target set for the call site.
//!
//! Incomplete partitions get "reduced checks" (paper §4.5): load-store
//! checks are disabled and bounds checks only apply when the source object
//! is actually registered — the sole source of false negatives.
//!
//! The crate also implements the pool-allocator constraints of §4.4 via
//! [`pool::PagePolicy`]: a kernel pool may reuse memory internally but must
//! not release its pages to other metapools until the metapool dies.
//!
//! Each vCPU of an SMP machine checks against its own clone of a kernel's
//! [`MetaPoolTable`]. [`shared::SharedMetaPlane`] is a standalone
//! RCU-style plane that no machine reads; it stays only for the
//! benchmark's plane probe (ROADMAP item 6).

pub mod check;
pub mod metapool;
pub mod pool;
mod ranges;
pub mod shared;
pub mod splay;

pub use check::{CheckError, CheckKind, CheckStats};
pub use metapool::{MetaPool, MetaPoolId, MetaPoolTable, PoolImage, PoolSummary};
pub use shared::{PlaneReader, SharedMetaPlane};
pub use splay::SplayTree;
