//! Metapools: the run-time representation of points-to partitions.
//!
//! A metapool (paper §4.3) is "a set of data objects that map to the same
//! points-to node and so must be treated as one logical pool by the safety
//! checking algorithm". At run time it owns a registry of registered
//! object ranges — a sorted range index, or the paper's splay tree as the
//! ablation baseline, or a shared-plane slot on SMP machines — and
//! implements the checks of §4.5, honouring the completeness-based
//! "reduced checks" rule.

use sva_trace::LookupLayer;

use crate::check::{CheckError, CheckKind, CheckStats};
use crate::ranges::RangeIndex;
use crate::shared::{SharedMetaPlane, SlotReader};
use crate::splay::SplayTree;

/// Identifier of a metapool within a [`MetaPoolTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct MetaPoolId(pub u32);

/// An empty MRU line: no address lies in `[0, 0)`.
const NO_LINE: (u64, u64, u64) = (0, 0, 0);

/// Where a metapool's registered objects live.
#[derive(Clone, Debug)]
enum Registry {
    /// The sorted range index (the default).
    Index(RangeIndex),
    /// The paper's splay tree: the ablation baseline, where every lookup
    /// is a splay walk (`fast_path` off).
    Splay(SplayTree),
    /// One slot of a shared metadata plane (SMP machines; DESIGN.md
    /// §4.9), read through the snapshot this vCPU pinned. Registrations
    /// and drops publish the slot; check semantics, counters and
    /// quarantine state remain per-vCPU.
    Shared(SlotReader),
}

/// One metapool with its object registry.
#[derive(Clone, Debug)]
pub struct MetaPool {
    /// Symbolic name (matches the bytecode annotation, e.g. `"MP4"`).
    pub name: String,
    /// Whether the partition is type-homogeneous.
    pub type_homogeneous: bool,
    /// Whether the partition is complete. Incomplete pools run reduced
    /// checks (paper §4.5).
    pub complete: bool,
    /// Element size for TH pools (alignment constraint, paper §4.4).
    pub elem_size: Option<u64>,
    registry: Registry,
    stats: CheckStats,
    /// The ablation switch this pool runs under: on, the registry is a
    /// range index; off, the splay baseline. A pool bound to a plane
    /// ignores it but keeps it for its image.
    fast_path: bool,
    /// MRU last-hit cache, most recent first: `(tag, start, end)` lines.
    /// A private pool tags its lines 0 and purges a line when its range
    /// is dropped. A plane-bound pool tags each line with the generation
    /// it was filled under, so a line dies the moment its slot publishes
    /// again — a drop on any vCPU kills it everywhere, with no
    /// cross-CPU invalidation traffic.
    mru: [(u64, u64, u64); 2],
    /// Which layer answered the most recent lookup. A single byte store on
    /// the lookup path; read by tracing instrumentation, never by checks.
    last_layer: LookupLayer,
    /// Violation containment: while quarantined, every check fails fast
    /// with [`CheckKind::Quarantined`] (no lookup is performed). The
    /// registry itself keeps working so registrations/drops stay coherent
    /// across the quarantine window.
    quarantined: bool,
    /// Permanent quarantine: set once the violation count reaches the
    /// budget. A poisoned pool can never be released.
    poisoned: bool,
    /// Safety violations attributed to this pool so far.
    violations: u32,
    /// Violations attributed within the current recovery-domain scope
    /// (DESIGN.md §4.5). The budget is enforced against this counter;
    /// [`MetaPool::end_scope`] resets it when the owning domain pops, so a
    /// pool only poisons when one domain instance exhausts the budget.
    /// Flat (boot-only) recovery never ends a scope, so the counter equals
    /// `violations` there and the pre-nesting semantics are unchanged.
    scope_violations: u32,
    /// Fault injection: the next N registrations fail as if the
    /// allocator ran out of memory.
    forced_reg_failures: u32,
    /// Recovery-domain subsystem id the poisoning violation was
    /// attributed to (0 = none / unattributed). Set by the VM when the
    /// pool crosses its budget inside a domain; `sva.recover.repair`
    /// selects pools by this id (DESIGN.md §4.8).
    poisoned_by: u64,
    /// Times this pool has been repaired (un-poisoned and reinitialized)
    /// by `sva.recover.repair` — the pool's repair history, surfaced in
    /// crash bundles.
    repairs: u32,
}

impl MetaPool {
    /// Creates an empty metapool.
    pub fn new(name: &str, type_homogeneous: bool, complete: bool, elem_size: Option<u64>) -> Self {
        MetaPool {
            name: name.to_string(),
            type_homogeneous,
            complete,
            elem_size,
            registry: Registry::Index(RangeIndex::new()),
            stats: CheckStats::default(),
            fast_path: true,
            mru: [NO_LINE; 2],
            last_layer: LookupLayer::None,
            quarantined: false,
            poisoned: false,
            violations: 0,
            scope_violations: 0,
            forced_reg_failures: 0,
            poisoned_by: 0,
            repairs: 0,
        }
    }

    /// Attaches this pool to slot `idx` of a shared metadata plane
    /// (SMP machines; DESIGN.md §4.9). The plane slot must already hold
    /// this pool's live ranges (see [`MetaPoolTable::publish_to_plane`]);
    /// the private registry and its MRU lines are dropped — every
    /// registration, drop and lookup now goes through the plane slot.
    ///
    /// # Panics
    ///
    /// Panics if the plane has no slot `idx`.
    pub fn bind_shared(&mut self, plane: &SharedMetaPlane, idx: u32) {
        let slot = plane
            .slot(idx)
            .unwrap_or_else(|| panic!("bind_shared: plane has no slot {idx}"));
        self.registry = Registry::Shared(SlotReader::new(slot));
        self.mru = [NO_LINE; 2];
    }

    /// Whether this pool is bound to a shared metadata plane.
    pub fn is_shared(&self) -> bool {
        matches!(self.registry, Registry::Shared(_))
    }

    /// Whether the pool runs the range index rather than the splay
    /// baseline.
    pub fn fast_path(&self) -> bool {
        self.fast_path
    }

    /// Switches between the range index and the splay baseline (the
    /// benchmark ablation flag), moving the live ranges across. A pool
    /// bound to a plane only records the switch.
    pub fn set_fast_path(&mut self, enabled: bool) {
        if self.fast_path == enabled {
            return;
        }
        self.fast_path = enabled;
        self.mru = [NO_LINE; 2];
        if !self.is_shared() {
            let ranges = self.live_ranges();
            self.registry = Self::private_registry(enabled, &ranges)
                .expect("live registry ranges are disjoint");
        }
    }

    /// A private registry holding `ranges`, as a range index or as the
    /// splay baseline. Refuses empty or overlapping ranges.
    fn private_registry(fast_path: bool, ranges: &[(u64, u64)]) -> Result<Registry, String> {
        let mut index = RangeIndex::new();
        let mut tree = SplayTree::new();
        for &(start, end) in ranges {
            let len = end.saturating_sub(start);
            let ok = if fast_path {
                index.insert(start, len).is_ok()
            } else {
                len > 0 && tree.insert(start, len)
            };
            if !ok {
                return Err(format!("bad range [{start:#x}, {end:#x})"));
            }
        }
        Ok(if fast_path {
            Registry::Index(index)
        } else {
            Registry::Splay(tree)
        })
    }

    /// The object lookup behind every check. On the splay baseline it is
    /// one splay walk. Otherwise — private pool or plane-bound, the
    /// latter on the snapshot it pins first — it is the singleton test
    /// (one live range: two compares answer hit and definitive miss),
    /// then the MRU, then a binary search of the range index. Exactly one
    /// of `singleton_hits` / `cache_hits` / `page_hits` / `tree_walks` is
    /// incremented per call. Inlined into the checks, and through them
    /// into an interpreter that runs checks inline.
    #[inline]
    fn lookup_obj(&mut self, addr: u64) -> Option<(u64, u64)> {
        let (index, tag) = match &mut self.registry {
            Registry::Index(index) => (&*index, 0),
            Registry::Shared(reader) => {
                reader.pin();
                (reader.ranges(), reader.pinned())
            }
            Registry::Splay(tree) => {
                self.stats.tree_walks += 1;
                self.last_layer = LookupLayer::Tree;
                return tree.lookup(addr);
            }
        };
        if let Some((start, end)) = index.only() {
            self.stats.singleton_hits += 1;
            self.last_layer = LookupLayer::Singleton;
            return (start <= addr && addr < end).then_some((start, end));
        }
        for i in 0..self.mru.len() {
            let (t, start, end) = self.mru[i];
            if t == tag && start <= addr && addr < end {
                self.stats.cache_hits += 1;
                self.last_layer = LookupLayer::Cache;
                if i != 0 {
                    self.mru.swap(0, 1);
                }
                return Some((start, end));
            }
        }
        // The range index answers hits and definitive misses alike.
        self.stats.page_hits += 1;
        self.last_layer = LookupLayer::Page;
        let hit = index.find(addr);
        if let Some((start, end)) = hit {
            if self.mru[0] != (tag, start, end) {
                self.mru[1] = self.mru[0];
                self.mru[0] = (tag, start, end);
            }
        }
        hit
    }

    /// Empties every MRU line holding `range` (it was just dropped).
    fn purge_line(&mut self, range: (u64, u64)) {
        for line in &mut self.mru {
            if (line.1, line.2) == range {
                *line = NO_LINE;
            }
        }
    }

    /// Which lookup layer answered the most recent object lookup
    /// ([`LookupLayer::None`] before the first lookup). Tracing reads this
    /// after a check to attribute the check to a layer.
    pub fn last_lookup_layer(&self) -> LookupLayer {
        self.last_layer
    }

    /// Number of live registered objects. For a shared-bound pool this
    /// reads the slot's current snapshot (cold path).
    pub fn live_objects(&self) -> usize {
        match &self.registry {
            Registry::Index(index) => index.len(),
            Registry::Splay(tree) => tree.len(),
            Registry::Shared(reader) => reader.slot().live_objects(),
        }
    }

    /// Read-only access to the counters.
    pub fn stats(&self) -> &CheckStats {
        &self.stats
    }

    /// Resets the counters (benchmark runs).
    pub fn reset_stats(&mut self) {
        self.stats = CheckStats::default();
    }

    /// Whether the pool is currently quarantined (checks fail fast).
    pub fn quarantined(&self) -> bool {
        self.quarantined
    }

    /// Whether the pool is permanently poisoned.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Safety violations attributed to this pool so far.
    pub fn violations(&self) -> u32 {
        self.violations
    }

    /// Violations attributed within the current recovery-domain scope.
    pub fn scope_violations(&self) -> u32 {
        self.scope_violations
    }

    /// Records a safety violation against this pool: the pool is
    /// quarantined, and once the violation count *within the current
    /// domain scope* reaches `budget` it is permanently poisoned. Returns
    /// `true` if the pool is now poisoned.
    pub fn note_violation(&mut self, budget: u32) -> bool {
        self.violations = self.violations.saturating_add(1);
        self.scope_violations = self.scope_violations.saturating_add(1);
        self.quarantined = true;
        if self.scope_violations >= budget {
            self.poisoned = true;
        }
        self.poisoned
    }

    /// Lifts the quarantine so checks run again. Poisoned pools stay
    /// fenced off; returns whether the release took effect.
    pub fn release_quarantine(&mut self) -> bool {
        if self.poisoned {
            return false;
        }
        self.quarantined = false;
        true
    }

    /// Recovery-domain subsystem id the poisoning violation was
    /// attributed to (0 = none).
    pub fn poisoned_by(&self) -> u64 {
        self.poisoned_by
    }

    /// Attributes this pool's poison to recovery-domain subsystem
    /// `subsys`. Only the first attribution sticks: the subsystem whose
    /// domain crossed the budget owns the repair.
    pub fn attribute_poison(&mut self, subsys: u64) {
        if self.poisoned && self.poisoned_by == 0 {
            self.poisoned_by = subsys;
        }
    }

    /// Times this pool has been repaired by `sva.recover.repair`.
    pub fn repairs(&self) -> u32 {
        self.repairs
    }

    /// Fault injection / test hook: poisons the pool outright and
    /// attributes the poison to `subsys`, as if a domain owned by that
    /// subsystem had exhausted the violation budget.
    pub fn force_poison(&mut self, subsys: u64) {
        self.violations = self.violations.saturating_add(1);
        self.scope_violations = self.scope_violations.saturating_add(1);
        self.quarantined = true;
        self.poisoned = true;
        self.attribute_poison(subsys);
    }

    /// `sva.recover.repair` (DESIGN.md §4.8): tears down and
    /// reinitializes a poisoned pool. The poison, quarantine, scoped
    /// violation budget and subsystem attribution all clear, and the
    /// layered lookup structures are rebuilt from the live registry —
    /// exactly the state a freshly initialized pool would reach after
    /// replaying the registrations, so post-repair checks are coherent.
    /// The lifetime violation count is kept as history. Returns `false`
    /// (and does nothing) if the pool was not poisoned.
    pub fn repair(&mut self) -> bool {
        if !self.poisoned {
            return false;
        }
        self.poisoned = false;
        self.quarantined = false;
        self.scope_violations = 0;
        self.poisoned_by = 0;
        self.repairs = self.repairs.saturating_add(1);
        // The registry is the live set itself; only the MRU lines drop.
        self.mru = [NO_LINE; 2];
        true
    }

    /// Ends the current recovery-domain scope (DESIGN.md §4.5): the
    /// scoped violation count resets and the quarantine is lifted, so the
    /// pool starts the next domain with a fresh budget. Poisoned pools
    /// stay fenced off permanently; returns whether the pool is usable
    /// again.
    pub fn end_scope(&mut self) -> bool {
        self.scope_violations = 0;
        self.release_quarantine()
    }

    /// Fault injection: makes the next `n` registrations fail as if the
    /// underlying allocator were out of memory.
    pub fn inject_reg_failures(&mut self, n: u32) {
        self.forced_reg_failures = self.forced_reg_failures.saturating_add(n);
    }

    /// Fault injection: corrupts the pool metadata by deregistering one
    /// live object (chosen by `seed`) and re-registering only its first
    /// half — pointers into the tail become wild. The MRU is purged like
    /// on a real drop so the corruption is coherent. Returns `false` if
    /// the pool had no live objects to corrupt.
    pub fn inject_corrupt_metadata(&mut self, seed: u64) -> bool {
        let ranges = self.live_ranges();
        if ranges.is_empty() {
            return false;
        }
        let (start, end) = ranges[(seed as usize) % ranges.len()];
        self.purge_line((start, end));
        let head = (end - start) / 2;
        match &mut self.registry {
            Registry::Index(index) => {
                index.remove(start);
                // The head of the range just removed is free, so this
                // only refuses an empty head (a one-byte object vanishes).
                let _ = index.insert(start, head);
            }
            Registry::Splay(tree) => {
                tree.remove(start);
                tree.insert(start, head);
            }
            // The plane picks the same range under its slot lock.
            Registry::Shared(reader) => return reader.slot().corrupt(seed),
        }
        true
    }

    /// The fail-fast rejection every check returns while quarantined.
    fn quarantine_reject(&mut self, addr: u64) -> CheckError {
        self.stats.quarantine_rejects += 1;
        let detail = if self.poisoned {
            "pool poisoned after repeated violations"
        } else {
            "pool quarantined after a violation"
        };
        self.err(CheckKind::Quarantined, addr, detail)
    }

    fn err(&self, kind: CheckKind, addr: u64, detail: impl Into<String>) -> CheckError {
        CheckError {
            kind,
            pool: self.name.clone(),
            addr,
            detail: detail.into(),
        }
    }

    /// `pchk.reg.obj`: registers `[addr, addr + len)`.
    ///
    /// Registering an overlapping range is a [`CheckKind::BadRegistration`]
    /// error — it would mean the kernel allocator handed out overlapping
    /// objects or the compiler mis-sized a registration.
    pub fn reg_obj(&mut self, addr: u64, len: u64) -> Result<(), CheckError> {
        self.stats.registrations += 1;
        if self.forced_reg_failures > 0 {
            self.forced_reg_failures -= 1;
            return Err(self.err(
                CheckKind::BadRegistration,
                addr,
                "injected allocation failure",
            ));
        }
        // Zero-sized allocations register a 1-byte placeholder so that the
        // pointer identity stays checkable.
        let len = len.max(1);
        let refused = match &mut self.registry {
            Registry::Index(index) => index.insert(addr, len).err(),
            Registry::Splay(tree) => match RangeIndex::end_of(addr, len) {
                Err(detail) => Some(detail),
                Ok(_) => (!tree.insert(addr, len))
                    .then(|| format!("overlapping registration of {len} bytes")),
            },
            Registry::Shared(reader) => reader.slot().register(addr, len).err().map(|e| e.detail),
        };
        match refused {
            None => Ok(()),
            Some(detail) => Err(self.err(CheckKind::BadRegistration, addr, detail)),
        }
    }

    /// `pchk.drop.obj`: deregisters the object starting at `addr`.
    ///
    /// Dropping a non-live object or a pointer not at the start of an
    /// object is an illegal free (guarantee T5).
    pub fn drop_obj(&mut self, addr: u64) -> Result<(), CheckError> {
        self.stats.drops += 1;
        let dropped = match &mut self.registry {
            Registry::Index(index) => index.remove(addr),
            Registry::Splay(tree) => tree.remove(addr),
            Registry::Shared(reader) => reader.slot().drop_obj(addr).ok(),
        };
        match dropped {
            Some(range) => {
                // A freed object must never be served from the MRU: that
                // would reintroduce exactly the use-after-free class the
                // checks exist to catch. (On a plane the generation bump
                // already killed the line on every vCPU.)
                self.purge_line(range);
                Ok(())
            }
            None => Err(self.err(
                CheckKind::IllegalFree,
                addr,
                "object not live at this address",
            )),
        }
    }

    /// `getbounds`: bounds of the object containing `addr`, if registered.
    pub fn get_bounds(&mut self, addr: u64) -> Option<(u64, u64)> {
        self.stats.get_bounds += 1;
        if self.quarantined {
            self.stats.quarantine_rejects += 1;
            return None;
        }
        self.lookup_obj(addr)
    }

    /// `boundscheck`: verifies that `derived` stays within the object
    /// containing `src` (paper §4.5 check 1).
    ///
    /// For incomplete pools this is a *reduced* check: if `src` hits no
    /// registered object nothing can be said and the check passes (counted
    /// in [`CheckStats::reduced_skips`]).
    ///
    /// `derived == end` (one-past-the-end) is accepted, matching C pointer
    /// arithmetic rules; dereference would still be caught because loads use
    /// the same object lookup.
    #[inline]
    pub fn bounds_check(&mut self, src: u64, derived: u64) -> Result<(), CheckError> {
        self.stats.bounds_checks += 1;
        if self.quarantined {
            return Err(self.quarantine_reject(derived));
        }
        match self.lookup_obj(src) {
            Some((start, end)) if derived >= start && derived <= end => Ok(()),
            None if !self.complete => {
                // Reduced check: unregistered (external) object.
                self.stats.reduced_skips += 1;
                Ok(())
            }
            found => Err(self.bounds_violation(src, derived, found)),
        }
    }

    /// The error of a failed [`Self::bounds_check`], built out of line.
    #[cold]
    fn bounds_violation(&self, src: u64, derived: u64, found: Option<(u64, u64)>) -> CheckError {
        match found {
            Some((start, end)) => self.err(
                CheckKind::Bounds,
                derived,
                format!("derived from {src:#x}, object [{start:#x}, {end:#x})"),
            ),
            // In a complete pool every legal object is registered, so an
            // unknown source pointer is itself a violation.
            None => self.err(CheckKind::Bounds, src, "source pointer hits no object"),
        }
    }

    /// Bounds check against statically known bounds (`pchk.bounds.range`),
    /// used when the verifier determined the object extent at compile time
    /// (paper Fig. 2 line 19).
    pub fn bounds_check_range(
        &mut self,
        start: u64,
        derived: u64,
        end: u64,
    ) -> Result<(), CheckError> {
        self.stats.bounds_checks += 1;
        if self.quarantined {
            return Err(self.quarantine_reject(derived));
        }
        if derived >= start && derived <= end {
            Ok(())
        } else {
            Err(self.err(
                CheckKind::Bounds,
                derived,
                format!("static object [{start:#x}, {end:#x})"),
            ))
        }
    }

    /// `lscheck`: verifies a load/store pointer targets a registered object
    /// (paper §4.5 check 2). Only required for non-TH pools; disabled
    /// ("useless", paper) on incomplete pools.
    #[inline]
    pub fn ls_check(&mut self, addr: u64) -> Result<(), CheckError> {
        self.stats.ls_checks += 1;
        if self.quarantined {
            return Err(self.quarantine_reject(addr));
        }
        if !self.complete {
            self.stats.reduced_skips += 1;
            return Ok(());
        }
        match self.lookup_obj(addr) {
            Some(_) => Ok(()),
            None => Err(self.err(CheckKind::LoadStore, addr, "no registered object")),
        }
    }

    /// Drops every remaining object (pool destruction: "deregister all
    /// remaining objects that are in a kernel pool when a pool is
    /// destroyed", paper §4.3).
    pub fn clear(&mut self) {
        self.mru = [NO_LINE; 2];
        match &mut self.registry {
            Registry::Index(index) => index.clear(),
            Registry::Splay(tree) => tree.clear(),
            Registry::Shared(reader) => reader.slot().clear(),
        }
    }

    /// All live ranges, ascending (diagnostics). For a shared-bound pool
    /// this reads the slot's current snapshot (cold path: takes the slot
    /// lock).
    pub fn live_ranges(&self) -> Vec<(u64, u64)> {
        match &self.registry {
            Registry::Index(index) => index.as_slice().to_vec(),
            Registry::Splay(tree) => tree.iter_ranges(),
            Registry::Shared(reader) => reader.slot().ranges(),
        }
    }

    /// Exports the pool's mutable state as a plain-data image for a
    /// machine snapshot. Live ranges are exported sorted; the splay tree's
    /// shape is *not* captured — it is rebuilt deterministically on
    /// restore, which is observationally equivalent because ranges are
    /// disjoint (every lookup answer and every counter increment is
    /// independent of tree shape). A plane-bound pool exports no MRU
    /// lines: their generation tags mean nothing outside the plane.
    pub fn export_image(&self) -> PoolImage {
        let mru = match self.registry {
            Registry::Shared(_) => [NO_LINE; 2],
            _ => self.mru,
        };
        PoolImage {
            name: self.name.clone(),
            ranges: self.live_ranges(),
            stats: self.stats.to_words(),
            fast_path: self.fast_path,
            mru: mru.map(|(_, start, end)| (start < end).then_some((start, end))),
            last_layer: self.last_layer.to_code(),
            quarantined: self.quarantined,
            poisoned: self.poisoned,
            violations: self.violations,
            scope_violations: self.scope_violations,
            forced_reg_failures: self.forced_reg_failures,
            poisoned_by: self.poisoned_by,
            repairs: self.repairs,
        }
    }

    /// Restores the pool's mutable state from [`MetaPool::export_image`]
    /// output into a private registry (a range index, or the splay
    /// baseline if the image was taken with the fast path off), built
    /// from the range list. The pool's identity fields (name,
    /// homogeneity, completeness) are *not* taken from the image — they
    /// come from the bytecode annotations, which the caller has already
    /// matched; a name mismatch is rejected as a cross-wired image. So is
    /// an MRU line that is not one of the image's live ranges: it would
    /// vouch for an object that was never registered.
    pub fn restore_image(&mut self, img: &PoolImage) -> Result<(), String> {
        if img.name != self.name {
            return Err(format!(
                "pool image \"{}\" restored into pool \"{}\"",
                img.name, self.name
            ));
        }
        let last_layer = LookupLayer::from_code(img.last_layer).ok_or_else(|| {
            format!(
                "pool {}: bad lookup-layer code {}",
                self.name, img.last_layer
            )
        })?;
        let registry = Self::private_registry(img.fast_path, &img.ranges)
            .map_err(|e| format!("pool {}: {e} in image", self.name))?;
        if let Some((start, end)) = img
            .mru
            .into_iter()
            .flatten()
            .find(|r| !img.ranges.contains(r))
        {
            return Err(format!(
                "pool {}: MRU line [{start:#x}, {end:#x}) is not a live range of the image",
                self.name
            ));
        }
        self.registry = registry;
        self.fast_path = img.fast_path;
        self.mru = img
            .mru
            .map(|line| line.map_or(NO_LINE, |(start, end)| (0, start, end)));
        self.last_layer = last_layer;
        self.quarantined = img.quarantined;
        self.poisoned = img.poisoned;
        self.violations = img.violations;
        self.scope_violations = img.scope_violations;
        self.forced_reg_failures = img.forced_reg_failures;
        self.poisoned_by = img.poisoned_by;
        self.repairs = img.repairs;
        self.stats = CheckStats::from_words(img.stats);
        Ok(())
    }
}

/// Plain-data image of one metapool's mutable state (machine snapshots,
/// DESIGN.md §4.6): the sorted range list, the lookup switch, the MRU
/// contents, the violation/quarantine state and the check counters.
/// `last_layer` is a [`LookupLayer::to_code`] byte.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolImage {
    /// Pool name, checked against the restore target.
    pub name: String,
    /// Live object ranges `(start, end)`, ascending.
    pub ranges: Vec<(u64, u64)>,
    /// [`CheckStats::to_words`] of the pool counters.
    pub stats: [u64; CheckStats::WORDS],
    /// Whether the pool runs the range index (else the splay baseline).
    pub fast_path: bool,
    /// MRU last-hit cache, most recent first. Each line must be one of
    /// `ranges`; a plane-bound pool exports none.
    pub mru: [Option<(u64, u64)>; 2],
    /// [`LookupLayer::to_code`] of the most recent lookup's layer.
    pub last_layer: u8,
    /// Whether checks currently fail fast.
    pub quarantined: bool,
    /// Whether the pool is permanently fenced off.
    pub poisoned: bool,
    /// Lifetime violation count.
    pub violations: u32,
    /// Violations within the current recovery-domain scope.
    pub scope_violations: u32,
    /// Pending injected registration failures.
    pub forced_reg_failures: u32,
    /// Subsystem id the poison was attributed to (0 = none).
    pub poisoned_by: u64,
    /// Times the pool has been repaired by `sva.recover.repair`.
    pub repairs: u32,
}

/// One metapool's forensic surface: the fields a crash bundle or
/// postmortem report prints. Unlike [`PoolImage`] this is a *summary* —
/// no ranges, no MRU contents — sized to be embedded per pool in every
/// crash artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolSummary {
    /// Pool id (index in the table).
    pub id: u32,
    /// Pool name.
    pub name: String,
    /// Whether the points-to partition is complete (incomplete pools run
    /// reduced checks).
    pub complete: bool,
    /// Live registered objects.
    pub live_objects: u64,
    /// Total checks answered (all layers).
    pub checks: u64,
    /// Lifetime violation count.
    pub violations: u32,
    /// Whether checks currently fail fast.
    pub quarantined: bool,
    /// Whether the pool is permanently fenced off.
    pub poisoned: bool,
    /// Times the pool has been repaired by `sva.recover.repair` (repair
    /// history, DESIGN.md §4.8).
    pub repairs: u32,
}

/// The set of all metapools of a loaded kernel, indexed by the metapool ids
/// embedded in the bytecode annotations.
#[derive(Clone, Debug, Default)]
pub struct MetaPoolTable {
    pools: Vec<MetaPool>,
    /// Indirect-call target sets (function ids), indexed by funccheck set id.
    pub func_sets: Vec<Vec<u64>>,
    func_stats: CheckStats,
}

impl MetaPoolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a pool, returning its id.
    pub fn add_pool(&mut self, pool: MetaPool) -> MetaPoolId {
        let id = MetaPoolId(self.pools.len() as u32);
        self.pools.push(pool);
        id
    }

    /// Number of pools.
    pub fn len(&self) -> usize {
        self.pools.len()
    }

    /// True if no pools exist.
    pub fn is_empty(&self) -> bool {
        self.pools.is_empty()
    }

    /// Access a pool.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn pool(&self, id: MetaPoolId) -> &MetaPool {
        &self.pools[id.0 as usize]
    }

    /// Mutable access to a pool.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn pool_mut(&mut self, id: MetaPoolId) -> &mut MetaPool {
        &mut self.pools[id.0 as usize]
    }

    /// Access a pool without panicking on bad ids (hostile input paths).
    pub fn pool_get(&self, id: MetaPoolId) -> Option<&MetaPool> {
        self.pools.get(id.0 as usize)
    }

    /// Mutable access without panicking on bad ids.
    pub fn pool_get_mut(&mut self, id: MetaPoolId) -> Option<&mut MetaPool> {
        self.pools.get_mut(id.0 as usize)
    }

    /// Resolves a pool by its symbolic name (violation attribution; cold
    /// path, linear scan).
    pub fn find_by_name(&self, name: &str) -> Option<MetaPoolId> {
        self.pools
            .iter()
            .position(|p| p.name == name)
            .map(|i| MetaPoolId(i as u32))
    }

    /// Forensic summaries of every pool, in id order (crash bundles and
    /// postmortem reports embed these).
    pub fn summaries(&self) -> Vec<PoolSummary> {
        self.pools
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let s = p.stats();
                PoolSummary {
                    id: i as u32,
                    name: p.name.clone(),
                    complete: p.complete,
                    live_objects: p.live_objects() as u64,
                    checks: s.bounds_checks + s.ls_checks + s.get_bounds + s.func_checks,
                    violations: p.violations(),
                    quarantined: p.quarantined(),
                    poisoned: p.poisoned(),
                    repairs: p.repairs(),
                }
            })
            .collect()
    }

    /// Number of pools currently quarantined (including poisoned ones).
    pub fn quarantined_count(&self) -> usize {
        self.pools.iter().filter(|p| p.quarantined()).count()
    }

    /// Number of pools permanently poisoned.
    pub fn poisoned_count(&self) -> usize {
        self.pools.iter().filter(|p| p.poisoned()).count()
    }

    /// `sva.recover.repair(subsys)` backend: repairs every pool whose
    /// poison is attributed to `subsys` (DESIGN.md §4.8). Returns the
    /// ids of the pools repaired.
    pub fn repair_poisoned_by(&mut self, subsys: u64) -> Vec<MetaPoolId> {
        let mut repaired = Vec::new();
        for (i, p) in self.pools.iter_mut().enumerate() {
            if p.poisoned() && p.poisoned_by() == subsys && p.repair() {
                repaired.push(MetaPoolId(i as u32));
            }
        }
        repaired
    }

    /// Registers an indirect-call target set, returning its set id.
    pub fn add_func_set(&mut self, targets: Vec<u64>) -> u32 {
        self.func_sets.push(targets);
        (self.func_sets.len() - 1) as u32
    }

    /// `funccheck`: verifies `target` is in set `set_id` (paper §4.5
    /// check 3).
    pub fn func_check(&mut self, set_id: u32, target: u64) -> Result<(), CheckError> {
        self.func_stats.func_checks += 1;
        let set = match self.func_sets.get(set_id as usize) {
            Some(s) => s,
            None => {
                return Err(CheckError {
                    kind: CheckKind::IndirectCall,
                    pool: format!("funcset{set_id}"),
                    addr: target,
                    detail: "unknown target set".into(),
                })
            }
        };
        if set.contains(&target) {
            Ok(())
        } else {
            Err(CheckError {
                kind: CheckKind::IndirectCall,
                pool: format!("funcset{set_id}"),
                addr: target,
                detail: format!("target not among {} allowed callees", set.len()),
            })
        }
    }

    /// Aggregated statistics across all pools (plus indirect-call checks).
    pub fn total_stats(&self) -> CheckStats {
        let mut s = self.func_stats;
        for p in &self.pools {
            s.merge(p.stats());
        }
        s
    }

    /// Resets every counter.
    pub fn reset_stats(&mut self) {
        self.func_stats = CheckStats::default();
        for p in &mut self.pools {
            p.reset_stats();
        }
    }

    /// Toggles the lookup fast path on every pool (benchmark ablation).
    pub fn set_fast_path(&mut self, enabled: bool) {
        for p in &mut self.pools {
            p.set_fast_path(enabled);
        }
    }

    /// Exports every pool's mutable state plus the table-level
    /// indirect-call counters for a machine snapshot.
    pub fn export_images(&self) -> (Vec<PoolImage>, [u64; CheckStats::WORDS]) {
        (
            self.pools.iter().map(|p| p.export_image()).collect(),
            self.func_stats.to_words(),
        )
    }

    /// Restores pool contents and counters from
    /// [`MetaPoolTable::export_images`] output. The table must already hold
    /// the same pools (same count, names, declaration order) — they come
    /// from the bytecode annotations, which the snapshot's code identity
    /// pins; any mismatch is rejected.
    pub fn restore_images(
        &mut self,
        imgs: &[PoolImage],
        func_stats: [u64; CheckStats::WORDS],
    ) -> Result<(), String> {
        if imgs.len() != self.pools.len() {
            return Err(format!(
                "image has {} pools, machine has {}",
                imgs.len(),
                self.pools.len()
            ));
        }
        for (p, img) in self.pools.iter_mut().zip(imgs) {
            p.restore_image(img)?;
        }
        self.func_stats = CheckStats::from_words(func_stats);
        Ok(())
    }

    /// SMP bring-up, step 1: publishes every pool's live ranges into
    /// `plane` — one fresh plane slot per pool, contiguous — and returns
    /// the base slot index. Publishing the same table once per vCPU gives
    /// each vCPU its own slot range (`base = vcpu * len()`) inside one
    /// shared plane: every slot shares the plane's snapshot/generation
    /// machinery while each vCPU's kernel keeps its own object namespace,
    /// and a publish on one slot never disturbs readers of another.
    ///
    /// # Panics
    ///
    /// Panics if a pool's live ranges overlap (impossible for a registry
    /// that [`MetaPool::reg_obj`] built).
    pub fn publish_to_plane(&self, plane: &SharedMetaPlane) -> u32 {
        let mut base = None;
        for p in &self.pools {
            let idx = plane.add_pool();
            base.get_or_insert(idx);
            plane
                .adopt(idx, &p.live_ranges())
                .expect("live registry ranges are disjoint");
        }
        base.unwrap_or(0)
    }

    /// SMP bring-up, step 2: binds every pool of this table to `plane`
    /// at slot range base 0 (plane slot = pool id, the layout a single
    /// [`Self::publish_to_plane`] call created). Each vCPU's table binds
    /// its own clone.
    pub fn bind_shared(&mut self, plane: &SharedMetaPlane) {
        self.bind_shared_at(plane, 0);
    }

    /// Like [`Self::bind_shared`] with an explicit slot-range base: pool
    /// `i` binds to plane slot `base + i` (the layout one
    /// [`Self::publish_to_plane`] call per vCPU creates).
    pub fn bind_shared_at(&mut self, plane: &SharedMetaPlane, base: u32) {
        for (i, p) in self.pools.iter_mut().enumerate() {
            p.bind_shared(plane, base + i as u32);
        }
    }

    /// Every pool's live ranges, in pool-id order (the per-job reset
    /// baseline an SMP machine restores its plane slots to).
    pub fn live_ranges_by_pool(&self) -> Vec<Vec<(u64, u64)>> {
        self.pools.iter().map(|p| p.live_ranges()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn th_pool() -> MetaPool {
        MetaPool::new("MP0", true, true, Some(16))
    }

    #[test]
    fn register_lookup_drop_cycle() {
        let mut p = th_pool();
        p.reg_obj(0x1000, 64).unwrap();
        assert_eq!(p.get_bounds(0x1020), Some((0x1000, 0x1040)));
        assert_eq!(p.live_objects(), 1);
        p.drop_obj(0x1000).unwrap();
        assert_eq!(p.get_bounds(0x1020), None);
    }

    #[test]
    fn double_free_detected() {
        let mut p = th_pool();
        p.reg_obj(0x1000, 64).unwrap();
        p.drop_obj(0x1000).unwrap();
        let err = p.drop_obj(0x1000).unwrap_err();
        assert_eq!(err.kind, CheckKind::IllegalFree);
    }

    #[test]
    fn free_of_interior_pointer_detected() {
        // T5: deallocation must use "a legal pointer to the start of the
        // allocated object".
        let mut p = th_pool();
        p.reg_obj(0x1000, 64).unwrap();
        let err = p.drop_obj(0x1010).unwrap_err();
        assert_eq!(err.kind, CheckKind::IllegalFree);
    }

    #[test]
    fn bounds_check_within_and_past() {
        let mut p = th_pool();
        p.reg_obj(0x1000, 64).unwrap();
        p.bounds_check(0x1000, 0x103f).unwrap();
        p.bounds_check(0x1000, 0x1040).unwrap(); // one-past-the-end ok
        let err = p.bounds_check(0x1000, 0x1041).unwrap_err();
        assert_eq!(err.kind, CheckKind::Bounds);
        let err = p.bounds_check(0x1010, 0x0fff).unwrap_err();
        assert_eq!(err.kind, CheckKind::Bounds);
    }

    #[test]
    fn bounds_check_unknown_source_complete_vs_incomplete() {
        let mut complete = MetaPool::new("MPc", false, true, None);
        let err = complete.bounds_check(0x5000, 0x5004).unwrap_err();
        assert_eq!(err.kind, CheckKind::Bounds);

        let mut incomplete = MetaPool::new("MPi", false, false, None);
        incomplete.bounds_check(0x5000, 0x5004).unwrap();
        assert_eq!(incomplete.stats().reduced_skips, 1);
    }

    #[test]
    fn ls_check_complete_vs_incomplete() {
        let mut complete = MetaPool::new("MPc", false, true, None);
        complete.reg_obj(0x2000, 16).unwrap();
        complete.ls_check(0x2008).unwrap();
        let err = complete.ls_check(0x3000).unwrap_err();
        assert_eq!(err.kind, CheckKind::LoadStore);

        let mut incomplete = MetaPool::new("MPi", false, false, None);
        incomplete.ls_check(0x3000).unwrap();
        assert_eq!(incomplete.stats().reduced_skips, 1);
    }

    #[test]
    fn zero_size_registration_is_checkable() {
        let mut p = th_pool();
        p.reg_obj(0x9000, 0).unwrap();
        assert_eq!(p.get_bounds(0x9000), Some((0x9000, 0x9001)));
    }

    #[test]
    fn overlapping_registration_rejected() {
        let mut p = th_pool();
        p.reg_obj(0x1000, 64).unwrap();
        let err = p.reg_obj(0x1020, 8).unwrap_err();
        assert_eq!(err.kind, CheckKind::BadRegistration);
    }

    #[test]
    fn bounds_check_range_static() {
        let mut p = th_pool();
        p.bounds_check_range(0x100, 0x150, 0x160).unwrap();
        let err = p.bounds_check_range(0x100, 0x161, 0x160).unwrap_err();
        assert_eq!(err.kind, CheckKind::Bounds);
    }

    #[test]
    fn func_check_sets() {
        let mut t = MetaPoolTable::new();
        let set = t.add_func_set(vec![0x10, 0x20, 0x30]);
        t.func_check(set, 0x20).unwrap();
        let err = t.func_check(set, 0x40).unwrap_err();
        assert_eq!(err.kind, CheckKind::IndirectCall);
        let err = t.func_check(99, 0x10).unwrap_err();
        assert_eq!(err.kind, CheckKind::IndirectCall);
    }

    #[test]
    fn stats_aggregate_across_pools() {
        let mut t = MetaPoolTable::new();
        let a = t.add_pool(MetaPool::new("A", true, true, None));
        let b = t.add_pool(MetaPool::new("B", false, false, None));
        t.pool_mut(a).reg_obj(0x100, 8).unwrap();
        t.pool_mut(a).bounds_check(0x100, 0x104).unwrap();
        t.pool_mut(b).ls_check(0x200).unwrap();
        let s = t.total_stats();
        assert_eq!(s.registrations, 1);
        assert_eq!(s.bounds_checks, 1);
        assert_eq!(s.ls_checks, 1);
        assert_eq!(s.reduced_skips, 1);
        t.reset_stats();
        assert_eq!(t.total_stats(), CheckStats::default());
    }

    #[test]
    fn clear_deregisters_everything() {
        let mut p = th_pool();
        p.reg_obj(0x1000, 16).unwrap();
        p.reg_obj(0x2000, 16).unwrap();
        p.clear();
        assert_eq!(p.live_objects(), 0);
        assert_eq!(p.get_bounds(0x1008), None);
    }

    #[test]
    fn mru_cache_serves_repeated_hits() {
        let mut p = th_pool();
        p.reg_obj(0x1000, 64).unwrap();
        p.reg_obj(0x3000, 64).unwrap(); // two objects: past the singleton test
                                        // First lookup fills the cache (resolved by the range index), the
                                        // rest are MRU hits.
        for _ in 0..10 {
            p.bounds_check(0x1000, 0x1020).unwrap();
        }
        assert_eq!(p.stats().page_hits, 1);
        assert_eq!(p.stats().cache_hits, 9);
        assert_eq!(p.stats().tree_walks, 0);
    }

    #[test]
    fn mru_second_slot_keeps_alternating_pair() {
        let mut p = th_pool();
        p.reg_obj(0x1000, 16).unwrap();
        p.reg_obj(0x2000, 16).unwrap();
        // Warm both slots, then alternate: every lookup after warmup must be
        // a cache hit (the 2-entry MRU holds both objects).
        p.ls_check(0x1008).unwrap();
        p.ls_check(0x2008).unwrap();
        for _ in 0..8 {
            p.ls_check(0x1008).unwrap();
            p.ls_check(0x2008).unwrap();
        }
        assert_eq!(p.stats().page_hits, 2);
        assert_eq!(p.stats().cache_hits, 16);
        assert_eq!(p.stats().tree_walks, 0);
    }

    #[test]
    fn dropped_object_never_served_from_caches() {
        let mut p = th_pool();
        // Three objects, so two are left after the drop and lookups still
        // reach the MRU.
        for addr in [0x1000, 0x3000, 0x5000] {
            p.reg_obj(addr, 64).unwrap();
        }
        // Pull the object into the MRU cache.
        p.ls_check(0x1010).unwrap();
        p.ls_check(0x1010).unwrap();
        assert_eq!(p.stats().cache_hits, 1);
        p.drop_obj(0x1000).unwrap();
        // A use-after-free probe must miss in every layer.
        let err = p.ls_check(0x1010).unwrap_err();
        assert_eq!(err.kind, CheckKind::LoadStore);
        assert_eq!(p.get_bounds(0x1010), None);
        // And re-registration at an overlapping address serves the new
        // object, not the stale range.
        p.reg_obj(0x1008, 8).unwrap();
        assert_eq!(p.get_bounds(0x100c), Some((0x1008, 0x1010)));
    }

    #[test]
    fn cleared_pool_never_served_from_caches() {
        let mut p = th_pool();
        p.reg_obj(0x1000, 64).unwrap();
        p.ls_check(0x1010).unwrap();
        p.ls_check(0x1010).unwrap();
        p.clear();
        let err = p.ls_check(0x1010).unwrap_err();
        assert_eq!(err.kind, CheckKind::LoadStore);
    }

    #[test]
    fn range_index_answers_definitive_misses() {
        let mut p = MetaPool::new("MPc", false, true, None);
        p.reg_obj(0x1000, 64).unwrap();
        p.reg_obj(0x3000, 64).unwrap(); // two objects: past the singleton test
                                        // A miss is answered by the range index, no tree walk.
        assert!(p.ls_check(0x9000).is_err());
        assert_eq!(p.stats().page_hits, 1);
        assert_eq!(p.stats().tree_walks, 0);
    }

    #[test]
    fn fast_path_toggle_recovers_baseline_and_rebuilds() {
        let mut p = th_pool();
        p.reg_obj(0x1000, 64).unwrap();
        p.reg_obj(0x3000, 64).unwrap();
        p.set_fast_path(false);
        assert!(!p.fast_path());
        for _ in 0..4 {
            p.bounds_check(0x1000, 0x1010).unwrap();
        }
        // Baseline: every lookup is a tree walk, no cache traffic.
        assert_eq!(p.stats().cache_hits, 0);
        assert_eq!(p.stats().page_hits, 0);
        assert_eq!(p.stats().tree_walks, 4);
        // Re-enabling rebuilds the range index from the live tree.
        p.set_fast_path(true);
        p.bounds_check(0x3000, 0x3010).unwrap();
        assert_eq!(p.stats().page_hits, 1);
        assert_eq!(p.stats().tree_walks, 4);
    }

    #[test]
    fn quarantine_fails_checks_fast_but_keeps_registry_working() {
        let mut p = th_pool();
        p.reg_obj(0x1000, 64).unwrap();
        assert!(!p.note_violation(3));
        assert!(p.quarantined());
        // Every check fails fast with the distinct kind, without lookups.
        let before = p.stats().lookups();
        assert_eq!(
            p.bounds_check(0x1000, 0x1010).unwrap_err().kind,
            CheckKind::Quarantined
        );
        assert_eq!(p.ls_check(0x1010).unwrap_err().kind, CheckKind::Quarantined);
        assert_eq!(
            p.bounds_check_range(0x1000, 0x1010, 0x1040)
                .unwrap_err()
                .kind,
            CheckKind::Quarantined
        );
        assert_eq!(p.get_bounds(0x1010), None);
        assert_eq!(p.stats().lookups(), before);
        assert_eq!(p.stats().quarantine_rejects, 4);
        // The registry stays coherent: reg/drop still work under quarantine
        // (the VM sweeps stack registrations during unwind).
        p.reg_obj(0x2000, 16).unwrap();
        p.drop_obj(0x2000).unwrap();
        // Release restores normal checking.
        assert!(p.release_quarantine());
        p.bounds_check(0x1000, 0x1010).unwrap();
    }

    #[test]
    fn violation_budget_poisons_permanently() {
        let mut p = th_pool();
        assert!(!p.note_violation(3));
        p.release_quarantine();
        assert!(!p.note_violation(3));
        p.release_quarantine();
        assert!(p.note_violation(3)); // third strike: poisoned
        assert!(p.poisoned());
        assert_eq!(p.violations(), 3);
        assert!(!p.release_quarantine());
        assert!(p.quarantined());
        assert_eq!(
            p.ls_check(0x1000).unwrap_err().detail,
            "pool poisoned after repeated violations"
        );
    }

    #[test]
    fn repair_unpoisons_and_rebuilds_coherently() {
        let mut p = MetaPool::new("MPc", false, true, None);
        p.reg_obj(0x1000, 64).unwrap();
        p.reg_obj(0x3000, 64).unwrap();
        // Warm the caches, then poison with attribution.
        p.ls_check(0x1010).unwrap();
        p.ls_check(0x1010).unwrap();
        p.force_poison(7);
        assert!(p.poisoned());
        assert_eq!(p.poisoned_by(), 7);
        assert!(!p.release_quarantine(), "poison must resist release");
        // Repair: poison clears, budget resets, attribution drops,
        // history records the repair.
        assert!(p.repair());
        assert!(!p.poisoned());
        assert!(!p.quarantined());
        assert_eq!(p.scope_violations(), 0);
        assert_eq!(p.poisoned_by(), 0);
        assert_eq!(p.repairs(), 1);
        assert_eq!(p.violations(), 1, "lifetime violations stay as history");
        // The rebuilt lookup layers answer correctly for live and dead
        // addresses alike.
        p.ls_check(0x1010).unwrap();
        p.ls_check(0x3010).unwrap();
        assert_eq!(p.ls_check(0x9000).unwrap_err().kind, CheckKind::LoadStore);
        // A healthy pool is not repairable.
        assert!(!p.repair());
        assert_eq!(p.repairs(), 1);
    }

    #[test]
    fn attribution_sticks_to_first_owner_and_table_repairs_by_subsys() {
        let mut t = MetaPoolTable::new();
        let a = t.add_pool(MetaPool::new("A", true, true, None));
        let b = t.add_pool(MetaPool::new("B", false, true, None));
        t.pool_mut(a).force_poison(3);
        t.pool_mut(a).attribute_poison(9); // second owner must not take over
        t.pool_mut(b).force_poison(9);
        assert_eq!(t.pool(a).poisoned_by(), 3);
        assert_eq!(t.repair_poisoned_by(3), vec![a]);
        assert!(!t.pool(a).poisoned());
        assert!(t.pool(b).poisoned(), "other subsystems' pools stay fenced");
        assert_eq!(t.repair_poisoned_by(3), vec![]);
        assert_eq!(t.repair_poisoned_by(9), vec![b]);
    }

    #[test]
    fn repair_state_survives_the_image_round_trip() {
        let mut p = MetaPool::new("MPc", false, true, None);
        p.reg_obj(0x1000, 64).unwrap();
        p.force_poison(5);
        p.repair();
        p.force_poison(6);
        let img = p.export_image();
        assert_eq!(img.poisoned_by, 6);
        assert_eq!(img.repairs, 1);
        let mut q = MetaPool::new("MPc", false, true, None);
        q.restore_image(&img).unwrap();
        assert_eq!(q.poisoned_by(), 6);
        assert_eq!(q.repairs(), 1);
        assert!(q.poisoned());
    }

    #[test]
    fn injected_reg_failures_consume_then_clear() {
        let mut p = th_pool();
        p.inject_reg_failures(2);
        assert_eq!(
            p.reg_obj(0x1000, 16).unwrap_err().kind,
            CheckKind::BadRegistration
        );
        assert_eq!(
            p.reg_obj(0x1000, 16).unwrap_err().detail,
            "injected allocation failure"
        );
        p.reg_obj(0x1000, 16).unwrap();
        assert_eq!(p.live_objects(), 1);
    }

    #[test]
    fn corrupt_metadata_shrinks_an_object_coherently() {
        let mut p = th_pool();
        p.reg_obj(0x1000, 64).unwrap();
        // Warm the caches so corruption must invalidate them.
        p.ls_check(0x1030).unwrap();
        p.ls_check(0x1030).unwrap();
        assert!(p.inject_corrupt_metadata(0));
        // The tail of the object is now wild in every layer.
        assert_eq!(p.ls_check(0x1030).unwrap_err().kind, CheckKind::LoadStore);
        // The head still checks out.
        p.ls_check(0x1010).unwrap();
        assert_eq!(p.get_bounds(0x1010), Some((0x1000, 0x1020)));
        // An empty pool has nothing to corrupt.
        let mut empty = th_pool();
        assert!(!empty.inject_corrupt_metadata(7));
    }

    #[test]
    fn table_finds_pools_by_name_and_counts_quarantines() {
        let mut t = MetaPoolTable::new();
        let a = t.add_pool(MetaPool::new("MP0", true, true, None));
        let b = t.add_pool(MetaPool::new("MP1", false, true, None));
        assert_eq!(t.find_by_name("MP1"), Some(b));
        assert_eq!(t.find_by_name("nope"), None);
        assert!(t.pool_get(MetaPoolId(99)).is_none());
        t.pool_mut(a).note_violation(1);
        t.pool_mut(b).note_violation(3);
        assert_eq!(t.quarantined_count(), 2);
        assert_eq!(t.poisoned_count(), 1);
    }

    #[test]
    fn singleton_pool_answers_hits_and_definitive_misses() {
        let mut p = th_pool();
        p.reg_obj(0x1000, 64).unwrap();
        // Every lookup — hit, interior hit, and miss — is answered by the
        // singleton layer without touching cache, index or tree.
        p.bounds_check(0x1000, 0x1020).unwrap();
        p.ls_check(0x103f).unwrap();
        assert_eq!(p.ls_check(0x2000).unwrap_err().kind, CheckKind::LoadStore);
        assert_eq!(p.get_bounds(0x1010), Some((0x1000, 0x1040)));
        assert_eq!(p.last_lookup_layer(), sva_trace::LookupLayer::Singleton);
        let s = *p.stats();
        assert_eq!(s.singleton_hits, 4);
        assert_eq!(s.cache_hits + s.page_hits + s.tree_walks, 0);
        assert_eq!(s.lookups(), 4);
    }

    #[test]
    fn singleton_invalidated_by_second_registration_and_restored_by_drop() {
        let mut p = th_pool();
        p.reg_obj(0x1000, 64).unwrap();
        p.ls_check(0x1010).unwrap();
        assert_eq!(p.stats().singleton_hits, 1);
        // A second live object disables the singleton layer...
        p.reg_obj(0x2000, 64).unwrap();
        p.ls_check(0x1010).unwrap();
        p.ls_check(0x2010).unwrap();
        assert_eq!(p.stats().singleton_hits, 1);
        // ...and dropping back to one live object re-enables it, serving
        // the *surviving* object only.
        p.drop_obj(0x1000).unwrap();
        assert_eq!(p.ls_check(0x1010).unwrap_err().kind, CheckKind::LoadStore);
        p.ls_check(0x2010).unwrap();
        assert_eq!(p.stats().singleton_hits, 3);
    }

    #[test]
    fn singleton_survives_clear_and_metadata_corruption() {
        let mut p = th_pool();
        p.reg_obj(0x1000, 64).unwrap();
        p.ls_check(0x1030).unwrap();
        // Corruption shrinks the lone object; the singleton range must
        // shrink with it so the tail is wild in this layer too.
        assert!(p.inject_corrupt_metadata(0));
        assert_eq!(p.ls_check(0x1030).unwrap_err().kind, CheckKind::LoadStore);
        assert_eq!(p.get_bounds(0x1010), Some((0x1000, 0x1020)));
        // Clearing the pool forgets the singleton entirely.
        p.clear();
        assert_eq!(p.ls_check(0x1010).unwrap_err().kind, CheckKind::LoadStore);
        assert_eq!(p.last_lookup_layer(), sva_trace::LookupLayer::Page);
    }

    #[test]
    fn singleton_agrees_with_baseline_on_every_probe() {
        // The two-compare answer must equal the splay-only answer for any
        // address, including boundaries.
        let mut fast = th_pool();
        let mut base = th_pool();
        base.set_fast_path(false);
        for p in [&mut fast, &mut base] {
            p.reg_obj(0x1000, 64).unwrap();
        }
        for addr in [0u64, 0xfff, 0x1000, 0x1001, 0x103f, 0x1040, 0x9000] {
            assert_eq!(fast.get_bounds(addr), base.get_bounds(addr), "{addr:#x}");
            assert_eq!(
                fast.ls_check(addr).is_ok(),
                base.ls_check(addr).is_ok(),
                "{addr:#x}"
            );
        }
        assert_eq!(fast.stats().lookups(), base.stats().lookups());
        assert_eq!(fast.stats().singleton_hits, fast.stats().lookups());
    }

    #[test]
    fn pool_image_round_trip_is_observationally_identical() {
        // Build a pool with non-trivial state in every layer: warm caches,
        // a huge object, violations, injected failures.
        let mut p = MetaPool::new("MPc", false, true, None);
        for i in 0..8u64 {
            p.reg_obj(0x1000 + i * 0x100, 0x80).unwrap();
        }
        p.reg_obj(0x10_0000, 0x10_0000).unwrap();
        for addr in [0x1010u64, 0x1210, 0x18_0000, 0x1010] {
            let _ = p.ls_check(addr);
        }
        p.note_violation(3);
        p.release_quarantine();
        p.inject_reg_failures(1);

        let img = p.export_image();
        let mut q = MetaPool::new("MPc", false, true, None);
        q.restore_image(&img).unwrap();

        assert_eq!(q.live_ranges(), p.live_ranges());
        assert_eq!(q.stats(), p.stats());
        assert_eq!(q.violations(), p.violations());
        assert_eq!(q.quarantined(), p.quarantined());
        // The restored pool must answer every probe — and attribute it to
        // the same layer, moving the same counters — as the original.
        let probes = [0u64, 0x1010, 0x1210, 0x1700, 0x18_0000, 0x50_0000];
        for addr in probes {
            assert_eq!(q.get_bounds(addr), p.get_bounds(addr), "{addr:#x}");
            assert_eq!(q.last_lookup_layer(), p.last_lookup_layer(), "{addr:#x}");
        }
        assert_eq!(q.stats(), p.stats());
        // Pending injected failures survive the trip.
        assert!(q.reg_obj(0x9000, 8).is_err());
        // Cross-wired images are rejected.
        let mut other = MetaPool::new("MPx", false, true, None);
        assert!(other.restore_image(&img).is_err());
    }

    /// Two pool clones bound to one plane, as two vCPUs would hold them.
    fn shared_pair() -> (Arc<SharedMetaPlane>, MetaPool, MetaPool) {
        let mut p = MetaPool::new("MPc", false, true, None);
        p.reg_obj(0x1000, 64).unwrap();
        let plane = Arc::new(SharedMetaPlane::new());
        let mut t = MetaPoolTable::new();
        t.add_pool(p);
        t.publish_to_plane(&plane);
        let mut t2 = t.clone();
        t.bind_shared(&plane);
        t2.bind_shared(&plane);
        let id = MetaPoolId(0);
        (plane, t.pool(id).clone(), t2.pool(id).clone())
    }

    #[test]
    fn shared_binding_routes_checks_through_the_plane() {
        let (plane, mut cpu0, mut cpu1) = shared_pair();
        assert!(cpu0.is_shared());
        // The adopted boot-time object is visible on both vCPUs.
        cpu0.ls_check(0x1010).unwrap();
        cpu1.bounds_check(0x1000, 0x1020).unwrap();
        assert_eq!(cpu1.get_bounds(0x1010), Some((0x1000, 0x1040)));
        // cpu0 registers; cpu1 sees it immediately (epoch moved).
        cpu0.reg_obj(0x2000, 32).unwrap();
        assert_eq!(plane.epoch(), 3); // add_pool + adopt + register
        cpu1.ls_check(0x2010).unwrap();
        // cpu1 drops it; cpu0's next probe must miss in every layer —
        // including the MRU it may have filled under the old epoch.
        cpu0.ls_check(0x2010).unwrap();
        cpu1.drop_obj(0x2000).unwrap();
        assert_eq!(
            cpu0.ls_check(0x2010).unwrap_err().kind,
            CheckKind::LoadStore
        );
        // Double free caught across vCPUs.
        assert_eq!(
            cpu0.drop_obj(0x2000).unwrap_err().kind,
            CheckKind::IllegalFree
        );
        // Overlap caught across vCPUs; the error names the pool.
        let e = cpu1.reg_obj(0x1010, 8).unwrap_err();
        assert_eq!(e.kind, CheckKind::BadRegistration);
        assert_eq!(e.pool, "MPc");
    }

    #[test]
    fn shared_lookup_counters_partition_and_mru_is_epoch_tagged() {
        let (_plane, mut cpu0, mut cpu1) = shared_pair();
        // One live object: the singleton test on the pinned snapshot.
        cpu0.ls_check(0x1010).unwrap();
        assert_eq!(cpu0.stats().singleton_hits, 1);
        // A second object, registered by the other vCPU, ends that: the
        // first probe fills the MRU from the range index, repeats hit it.
        cpu1.reg_obj(0x2000, 64).unwrap();
        for _ in 0..5 {
            cpu0.ls_check(0x1010).unwrap();
        }
        assert_eq!(cpu0.stats().page_hits, 1);
        assert_eq!(cpu0.stats().cache_hits, 4);
        // Any publish on this pool's slot — even of an unrelated object,
        // even by this vCPU — invalidates the tag; the next probe
        // re-reads the snapshot.
        cpu1.reg_obj(0x9000, 8).unwrap();
        cpu0.ls_check(0x1010).unwrap();
        assert_eq!(cpu0.stats().page_hits, 2);
        let s = *cpu0.stats();
        assert_eq!(s.tree_walks, 0);
        assert_eq!(s.lookups(), 7);
        // The filled lines carry generation tags: an image exports none.
        assert_eq!(cpu0.export_image().mru, [None, None]);
    }

    #[test]
    fn mru_lines_survive_publishes_on_other_slots() {
        // Two pools of one vCPU, bound to sibling slots A and B.
        let mut t = MetaPoolTable::new();
        let a = t.add_pool(MetaPool::new("MPa", false, true, None));
        let b = t.add_pool(MetaPool::new("MPb", false, true, None));
        // Enough objects that every probe below gets past the singleton
        // test to the MRU.
        for addr in [0x1000, 0x3000, 0x5000] {
            t.pool_mut(a).reg_obj(addr, 64).unwrap();
            t.pool_mut(b).reg_obj(addr, 64).unwrap();
        }
        let plane = Arc::new(SharedMetaPlane::new());
        let base = t.publish_to_plane(&plane);
        let mut sibling = t.clone();
        t.bind_shared_at(&plane, base);
        sibling.bind_shared_at(&plane, base);
        // Fill B's MRU line.
        t.pool_mut(b).ls_check(0x1010).unwrap();
        assert_eq!(t.pool(b).stats().page_hits, 1);
        // A publish on slot A — a register and a drop, from another vCPU —
        // leaves B's line live: the next probe is a cache hit.
        sibling.pool_mut(a).reg_obj(0x2000, 8).unwrap();
        sibling.pool_mut(a).drop_obj(0x1000).unwrap();
        t.pool_mut(b).ls_check(0x1010).unwrap();
        assert_eq!(t.pool(b).stats().cache_hits, 1);
        assert_eq!(t.pool(b).stats().page_hits, 1);
        // The other direction: A's dropped object is never answered from
        // a line filled before the drop, even though A's line was hot.
        t.pool_mut(a).ls_check(0x2004).unwrap();
        t.pool_mut(a).ls_check(0x2004).unwrap();
        assert_eq!(t.pool(a).stats().cache_hits, 1);
        sibling.pool_mut(a).drop_obj(0x2000).unwrap();
        assert_eq!(
            t.pool_mut(a).ls_check(0x2004).unwrap_err().kind,
            CheckKind::LoadStore
        );
        assert_eq!(t.pool(a).stats().cache_hits, 1, "stale MRU hit after drop");
        // And B still hits its line after A's second publish.
        t.pool_mut(b).ls_check(0x1010).unwrap();
        assert_eq!(t.pool(b).stats().cache_hits, 2);
    }

    #[test]
    fn shared_quarantine_and_stats_stay_per_vcpu() {
        let (_plane, mut cpu0, mut cpu1) = shared_pair();
        cpu0.note_violation(3);
        assert!(cpu0.quarantined());
        assert_eq!(
            cpu0.ls_check(0x1010).unwrap_err().kind,
            CheckKind::Quarantined
        );
        // The other vCPU's clone keeps checking normally.
        assert!(!cpu1.quarantined());
        cpu1.ls_check(0x1010).unwrap();
        assert_eq!(cpu1.stats().quarantine_rejects, 0);
    }

    #[test]
    fn shared_corruption_and_clear_propagate_across_vcpus() {
        let (_plane, mut cpu0, mut cpu1) = shared_pair();
        cpu0.ls_check(0x1030).unwrap();
        assert!(cpu1.inject_corrupt_metadata(0));
        // The shrunken tail is wild on the *other* vCPU.
        assert_eq!(
            cpu0.ls_check(0x1030).unwrap_err().kind,
            CheckKind::LoadStore
        );
        cpu0.ls_check(0x1010).unwrap();
        assert_eq!(cpu0.live_objects(), 1);
        cpu1.clear();
        assert_eq!(cpu0.live_objects(), 0);
        assert_eq!(
            cpu0.ls_check(0x1010).unwrap_err().kind,
            CheckKind::LoadStore
        );
    }

    #[test]
    fn lookup_layers_partition_all_lookups() {
        let mut p = MetaPool::new("MPc", false, true, None);
        for i in 0..64u64 {
            p.reg_obj(0x1000 + i * 0x100, 0x80).unwrap();
        }
        let mut x = 7u64;
        let mut lookups = 0;
        for _ in 0..1000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = 0x1000 + (x % 0x4000);
            let _ = p.ls_check(addr);
            lookups += 1;
        }
        let s = *p.stats();
        assert_eq!(s.lookups(), lookups);
        assert_eq!(s.cache_hits + s.page_hits + s.tree_walks, lookups);
    }

    #[test]
    fn restored_mru_line_must_be_a_live_range() {
        let mut p = MetaPool::new("MPc", false, true, None);
        p.reg_obj(0x1000, 0x40).unwrap();
        p.reg_obj(0x2000, 0x40).unwrap();
        p.ls_check(0x1010).unwrap();
        let good = p.export_image();
        assert_eq!(good.mru, [Some((0x1000, 0x1040)), None]);
        // A line for an object that was never registered, and one that
        // only overlaps a live range, are both refused.
        for line in [(0x5000, 0x6000), (0x1000, 0x1080)] {
            let forged = PoolImage {
                mru: [Some(line), None],
                ..good.clone()
            };
            let mut q = MetaPool::new("MPc", false, true, None);
            let e = q.restore_image(&forged).unwrap_err();
            assert!(e.contains("MRU line"), "{e}");
            // The rejected restore left the pool as it was: empty.
            assert_eq!(q.live_objects(), 0);
            assert!(q.ls_check(0x5010).is_err());
            assert_eq!(q.get_bounds(0x5010), None);
        }
        let mut q = MetaPool::new("MPc", false, true, None);
        q.restore_image(&good).unwrap();
        q.ls_check(0x1010).unwrap();
        assert_eq!(q.stats().cache_hits, p.stats().cache_hits + 1);
    }

    #[test]
    fn a_registration_that_wraps_is_refused_on_every_registry() {
        let (_plane, mut shared, _) = shared_pair();
        let mut private = MetaPool::new("MPc", false, true, None);
        private.reg_obj(0x1000, 64).unwrap();
        let mut splay = private.clone();
        splay.set_fast_path(false);
        for p in [&mut private, &mut splay, &mut shared] {
            let e = p.reg_obj(u64::MAX - 8, 32).unwrap_err();
            assert_eq!(e.kind, CheckKind::BadRegistration);
            assert_eq!(e.pool, "MPc");
            assert!(e.detail.contains("wraps"), "{}", e.detail);
            assert_eq!(p.live_ranges(), vec![(0x1000, 0x1040)]);
            assert_eq!(p.get_bounds(8), None, "no inverted range was stored");
        }
    }
}
