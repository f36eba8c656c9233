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

/// Counters for the run-time checks, used by the benchmark harnesses to
/// report check volume alongside latency.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CheckStats {
    /// `boundscheck` executions.
    pub bounds_checks: u64,
    /// `lscheck` executions.
    pub ls_checks: u64,
    /// `getbounds` executions.
    pub get_bounds: u64,
    /// Indirect call checks.
    pub func_checks: u64,
    /// Object registrations.
    pub registrations: u64,
    /// Object deregistrations.
    pub drops: u64,
    /// Checks skipped because the partition is incomplete ("reduced
    /// checks", the source of false negatives).
    pub reduced_skips: u64,
    /// Object lookups answered by the singleton test: the pool held
    /// exactly one live object, so two compares gave the full answer (hit
    /// or definitive miss) without touching any other layer.
    pub singleton_hits: u64,
    /// Object lookups answered by the per-pool MRU last-hit cache.
    pub cache_hits: u64,
    /// Object lookups answered by a binary search of the range index, hit
    /// or definitive miss (the name predates the index).
    pub page_hits: u64,
    /// Object lookups of the splay baseline (`fast_path` off), every one
    /// a splay walk.
    pub tree_walks: u64,
    /// Checks rejected immediately because the pool was quarantined
    /// after a violation (no lookup is performed for these).
    pub quarantine_rejects: u64,
}

impl CheckStats {
    /// Total number of check executions.
    pub fn total_checks(&self) -> u64 {
        self.bounds_checks + self.ls_checks + self.get_bounds + self.func_checks
    }

    /// Adds another stats block into this one.
    pub fn merge(&mut self, other: &CheckStats) {
        self.bounds_checks += other.bounds_checks;
        self.ls_checks += other.ls_checks;
        self.get_bounds += other.get_bounds;
        self.func_checks += other.func_checks;
        self.registrations += other.registrations;
        self.drops += other.drops;
        self.reduced_skips += other.reduced_skips;
        self.singleton_hits += other.singleton_hits;
        self.cache_hits += other.cache_hits;
        self.page_hits += other.page_hits;
        self.tree_walks += other.tree_walks;
        self.quarantine_rejects += other.quarantine_rejects;
    }

    /// Object lookups performed by any layer (the denominator for the
    /// per-layer hit rates).
    pub fn lookups(&self) -> u64 {
        self.singleton_hits + self.cache_hits + self.page_hits + self.tree_walks
    }

    /// Folds every counter into a metrics registry under `check.`-prefixed
    /// names. Uses `set_counter` semantics: the stats block is already a
    /// running total, adding would double-count across snapshots.
    pub fn fold_into(&self, metrics: &mut sva_trace::MetricsRegistry) {
        metrics.set_counter("check.bounds_checks", self.bounds_checks);
        metrics.set_counter("check.ls_checks", self.ls_checks);
        metrics.set_counter("check.get_bounds", self.get_bounds);
        metrics.set_counter("check.func_checks", self.func_checks);
        metrics.set_counter("check.registrations", self.registrations);
        metrics.set_counter("check.drops", self.drops);
        metrics.set_counter("check.reduced_skips", self.reduced_skips);
        metrics.set_counter("check.lookup.singleton_hits", self.singleton_hits);
        metrics.set_counter("check.lookup.cache_hits", self.cache_hits);
        metrics.set_counter("check.lookup.page_hits", self.page_hits);
        metrics.set_counter("check.lookup.tree_walks", self.tree_walks);
        metrics.set_counter("check.quarantine_rejects", self.quarantine_rejects);
    }

    /// Number of counters in the block — the width of [`CheckStats::to_words`].
    pub const WORDS: usize = 12;

    /// The counters as a fixed word array, in declaration order (binary
    /// serialization for snapshot images).
    pub fn to_words(&self) -> [u64; Self::WORDS] {
        [
            self.bounds_checks,
            self.ls_checks,
            self.get_bounds,
            self.func_checks,
            self.registrations,
            self.drops,
            self.reduced_skips,
            self.singleton_hits,
            self.cache_hits,
            self.page_hits,
            self.tree_walks,
            self.quarantine_rejects,
        ]
    }

    /// Rebuilds a stats block from [`CheckStats::to_words`] output.
    pub fn from_words(w: [u64; Self::WORDS]) -> CheckStats {
        CheckStats {
            bounds_checks: w[0],
            ls_checks: w[1],
            get_bounds: w[2],
            func_checks: w[3],
            registrations: w[4],
            drops: w[5],
            reduced_skips: w[6],
            singleton_hits: w[7],
            cache_hits: w[8],
            page_hits: w[9],
            tree_walks: w[10],
            quarantine_rejects: w[11],
        }
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
