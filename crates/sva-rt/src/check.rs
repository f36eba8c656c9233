//! Check outcomes, violations and counters.

use std::fmt;

/// Which run-time check detected a violation (paper §4.5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckKind {
    /// `boundscheck` — an indexing result escaped its source object.
    Bounds,
    /// `lscheck` — a load/store pointer did not hit a registered object.
    LoadStore,
    /// `funccheck` — an indirect call left the computed call graph.
    IndirectCall,
    /// `pchk.drop.obj` on a non-live object (double/illegal free, T5).
    IllegalFree,
    /// A registration conflicted with a live object.
    BadRegistration,
    /// Any check against a quarantined metapool: after a violation the
    /// pool is fenced off and further accesses fail fast until the
    /// kernel's recovery handler releases it (or the pool is poisoned).
    Quarantined,
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CheckKind::Bounds => "bounds check",
            CheckKind::LoadStore => "load-store check",
            CheckKind::IndirectCall => "indirect call check",
            CheckKind::IllegalFree => "illegal free",
            CheckKind::BadRegistration => "bad registration",
            CheckKind::Quarantined => "quarantined pool",
        };
        f.write_str(s)
    }
}

/// A detected memory-safety violation.
///
/// This is what the SVM raises instead of letting the kernel corrupt
/// memory; kernel recovery policy is out of scope (paper §2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckError {
    /// The failing check.
    pub kind: CheckKind,
    /// The metapool involved.
    pub pool: String,
    /// The offending address.
    pub addr: u64,
    /// Additional context (source object bounds, target set id, ...).
    pub detail: String,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SVA {} violation in metapool {}: addr {:#x} ({})",
            self.kind, self.pool, self.addr, self.detail
        )
    }
}

impl std::error::Error for CheckError {}

sva_trace::counter_table! {
    /// Counters for the run-time checks, used by the benchmark harnesses to
    /// report check volume alongside latency.
    pub struct CheckStats {
        /// Adds another stats block into this one.
        fn merge;
        /// `boundscheck` executions.
        bounds_checks => "check.bounds_checks",
        /// `lscheck` executions.
        ls_checks => "check.ls_checks",
        /// `getbounds` executions.
        get_bounds => "check.get_bounds",
        /// Indirect call checks.
        func_checks => "check.func_checks",
        /// Object registrations.
        registrations => "check.registrations",
        /// Object deregistrations.
        drops => "check.drops",
        /// Checks skipped because the partition is incomplete ("reduced
        /// checks", the source of false negatives).
        reduced_skips => "check.reduced_skips",
        /// Object lookups answered by the singleton test: the pool held
        /// exactly one live object, so two compares gave the full answer (hit
        /// or definitive miss) without touching any other layer.
        singleton_hits => "check.lookup.singleton_hits",
        /// Object lookups answered by the per-pool MRU last-hit cache.
        cache_hits => "check.lookup.cache_hits",
        /// Object lookups answered by a binary search of the range index, hit
        /// or definitive miss (the name predates the index).
        page_hits => "check.lookup.page_hits",
        /// Object lookups of the splay baseline (`fast_path` off), every one
        /// a splay walk.
        tree_walks => "check.lookup.tree_walks",
        /// Checks rejected immediately because the pool was quarantined
        /// after a violation (no lookup is performed for these).
        quarantine_rejects => "check.quarantine_rejects",
    }
}

impl CheckStats {
    /// Total number of check executions.
    pub fn total_checks(&self) -> u64 {
        self.bounds_checks + self.ls_checks + self.get_bounds + self.func_checks
    }

    /// Object lookups performed by any layer (the denominator for the
    /// per-layer hit rates).
    pub fn lookups(&self) -> u64 {
        self.singleton_hits + self.cache_hits + self.page_hits + self.tree_walks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CheckError {
            kind: CheckKind::Bounds,
            pool: "MP3".into(),
            addr: 0x1000,
            detail: "object [0xf00, 0xfff]".into(),
        };
        let s = e.to_string();
        assert!(s.contains("bounds check"));
        assert!(s.contains("MP3"));
        assert!(s.contains("0x1000"));
    }

    #[test]
    fn stats_merge_and_total() {
        let mut a = CheckStats {
            bounds_checks: 1,
            ls_checks: 2,
            ..Default::default()
        };
        let b = CheckStats {
            bounds_checks: 10,
            func_checks: 5,
            reduced_skips: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.bounds_checks, 11);
        assert_eq!(a.total_checks(), 11 + 2 + 5);
        assert_eq!(a.reduced_skips, 7);
    }
}
