//! Per-slot published shared metapool metadata (DESIGN.md §4.9).
//!
//! A multi-vCPU machine shares pool-level object metadata across vCPUs.
//! The write side (object registration and drop) is rare compared to the
//! read side (every checked load), so the registry is split the RCU way,
//! one plane *slot* (one pool of one vCPU's kernel) at a time:
//!
//! * Each slot **publishes** an immutable snapshot of its live ranges, a
//!   `RangeIndex`, and then stores the slot's new generation with
//!   `Release` ordering. A mutation copies the published ranges, edits
//!   the copy under the slot's mutex and publishes it, so a publish costs
//!   what the slot holds, never what the plane holds.
//! * Readers never take the lock on the steady state: one `Acquire` load
//!   of the slot generation validates their cached `Arc` of the slot's
//!   snapshot; only when it moved do they briefly lock that slot to swap
//!   in the new one.
//! * Reclamation is deferred until the readers quiesce: a superseded
//!   snapshot stays alive for exactly as long as some reader still holds
//!   its `Arc`, and [`SharedMetaPlane::retired_live`] counts the
//!   snapshots still pinned that way.
//!
//! A slot's generation is the plane epoch its latest publish drew, so
//! generations are unique plane-wide and [`SharedMetaPlane::epoch`] stays
//! a monotone count of every publish on every slot.
//!
//! The stale-read hazard this design must exclude: a checked load served
//! from metadata that a concurrent drop already retired (a missed
//! use-after-free). Two mechanisms close it — the slot generation
//! validates the snapshot before every answer, and the per-vCPU MRU
//! lines in [`crate::metapool::MetaPool`] are tagged with the generation
//! they were filled under, so a line is dead the moment its slot
//! publishes again. A publish on any *other* slot leaves it alive.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, Weak};

use crate::check::{CheckError, CheckKind};
use crate::ranges::RangeIndex;

/// Immutable published view of one slot's live ranges.
#[derive(Debug)]
struct PoolSnap {
    /// The slot generation this snapshot was published at.
    gen: u64,
    /// Live ranges, ascending and disjoint.
    ranges: RangeIndex,
}

/// Publisher-side state of one slot, only touched under its mutex.
#[derive(Debug)]
struct SlotState {
    /// The currently published snapshot: the slot's authoritative set.
    snap: Arc<PoolSnap>,
    /// Superseded snapshots some reader still held when they were
    /// replaced, kept as weak refs so deferred reclamation is observable
    /// (an upgradeable weak means a reader still pins that generation).
    retired: Vec<Weak<PoolSnap>>,
}

/// One plane slot: a pool's published ranges and the generation that
/// validates them.
#[derive(Debug)]
pub(crate) struct Slot {
    /// Plane slot index (error attribution).
    idx: u32,
    /// The plane's publish counter, shared by every slot.
    epoch: Arc<AtomicU64>,
    /// Generation of the published snapshot. `Release`-stored after the
    /// snapshot swap, `Acquire`-loaded by readers, so a reader that
    /// observes generation G also observes the snapshot that published it.
    gen: AtomicU64,
    state: Mutex<SlotState>,
}

impl Slot {
    /// An empty slot, published at a fresh epoch.
    fn new(idx: u32, epoch: Arc<AtomicU64>) -> Slot {
        let gen = epoch.fetch_add(1, Ordering::AcqRel) + 1;
        Slot {
            idx,
            epoch,
            gen: AtomicU64::new(gen),
            state: Mutex::new(SlotState {
                snap: Arc::new(PoolSnap {
                    gen,
                    ranges: RangeIndex::new(),
                }),
                retired: Vec::new(),
            }),
        }
    }

    fn locked(&self) -> MutexGuard<'_, SlotState> {
        // A poisoned mutex means another vCPU thread panicked mid-publish;
        // the published snapshot is only ever replaced whole, so the data
        // is coherent — recover it.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes `ranges` as the slot's new immutable snapshot at a fresh
    /// plane epoch, then stores it as the slot generation (`Release`).
    /// Caller holds the slot lock.
    fn publish(&self, st: &mut SlotState, ranges: RangeIndex) {
        let gen = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        let old = std::mem::replace(&mut st.snap, Arc::new(PoolSnap { gen, ranges }));
        st.retired.retain(|w| w.strong_count() > 0);
        if Arc::strong_count(&old) > 1 {
            st.retired.push(Arc::downgrade(&old));
        }
        self.gen.store(gen, Ordering::Release);
    }

    /// The published generation (`Acquire`). One atomic load — the only
    /// synchronization a steady-state reader performs per lookup.
    pub(crate) fn generation(&self) -> u64 {
        self.gen.load(Ordering::Acquire)
    }

    /// The published snapshot (readers call this only after a generation
    /// mismatch; the steady state never locks).
    fn current(&self) -> Arc<PoolSnap> {
        self.locked().snap.clone()
    }

    /// Live ranges of the published snapshot, ascending.
    pub(crate) fn ranges(&self) -> Vec<(u64, u64)> {
        self.current().ranges.as_slice().to_vec()
    }

    /// Live objects in the published snapshot.
    pub(crate) fn live_objects(&self) -> usize {
        self.current().ranges.len()
    }

    /// Applies `edit` to a copy of the published ranges and publishes the
    /// copy; a refused edit publishes nothing.
    fn mutate<R>(
        &self,
        edit: impl FnOnce(&mut RangeIndex) -> Result<R, CheckError>,
    ) -> Result<R, CheckError> {
        let mut st = self.locked();
        let mut next = st.snap.ranges.clone();
        let out = edit(&mut next)?;
        self.publish(&mut st, next);
        Ok(out)
    }

    /// Registers `[addr, addr+len)` and publishes.
    pub(crate) fn register(&self, addr: u64, len: u64) -> Result<(), CheckError> {
        self.mutate(|ix| {
            ix.insert(addr, len.max(1))
                .map_err(|detail| plane_err(self.idx, CheckKind::BadRegistration, addr, detail))
        })
    }

    /// Drops the object starting at `addr` and publishes.
    pub(crate) fn drop_obj(&self, addr: u64) -> Result<(u64, u64), CheckError> {
        self.mutate(|ix| {
            ix.remove(addr).ok_or_else(|| {
                plane_err(
                    self.idx,
                    CheckKind::IllegalFree,
                    addr,
                    "object not live at this address",
                )
            })
        })
    }

    /// Removes every object; publishes only if the slot was nonempty.
    pub(crate) fn clear(&self) {
        let mut st = self.locked();
        if !st.snap.ranges.is_empty() {
            self.publish(&mut st, RangeIndex::new());
        }
    }

    /// Adds `ranges` with one publish, all or nothing: every range is
    /// checked against the live set and against the others before any
    /// is inserted, so a rejected adopt leaves the slot untouched.
    fn adopt(&self, ranges: &[(u64, u64)]) -> Result<(), CheckError> {
        self.mutate(|ix| insert_all(ix, self.idx, ranges))
    }

    /// Replaces the live set with `ranges`, publishing only if it
    /// differs. Returns whether it published.
    fn reset(&self, ranges: &RangeIndex) -> bool {
        let mut st = self.locked();
        if st.snap.ranges == *ranges {
            return false;
        }
        self.publish(&mut st, ranges.clone());
        true
    }

    /// See [`SharedMetaPlane::corrupt`].
    pub(crate) fn corrupt(&self, seed: u64) -> bool {
        let mut st = self.locked();
        let live = st.snap.ranges.as_slice();
        if live.is_empty() {
            return false;
        }
        let (start, end) = live[(seed as usize) % live.len()];
        let mut next = st.snap.ranges.clone();
        next.remove(start);
        // The head of the range just removed is free, so this only
        // refuses an empty head (a one-byte object vanishes).
        let _ = next.insert(start, (end - start) / 2);
        self.publish(&mut st, next);
        true
    }

    fn retired_live(&self) -> usize {
        let mut st = self.locked();
        st.retired.retain(|w| w.strong_count() > 0);
        st.retired.len()
    }
}

/// Inserts every `(start, end)` of `ranges` into `ix`, an empty range
/// widened to one byte the way every registration path treats zero-sized
/// objects.
fn insert_all(ix: &mut RangeIndex, idx: u32, ranges: &[(u64, u64)]) -> Result<(), CheckError> {
    for &(start, end) in ranges {
        ix.insert(start, end.saturating_sub(start).max(1))
            .map_err(|detail| plane_err(idx, CheckKind::BadRegistration, start, detail))?;
    }
    Ok(())
}

/// The shared metapool metadata plane: a growable array of independently
/// published slots.
///
/// Cheap to share (`Arc<SharedMetaPlane>`); all methods take `&self`.
#[derive(Debug, Default)]
pub struct SharedMetaPlane {
    /// Publish counter: bumped once per publish on any slot.
    epoch: Arc<AtomicU64>,
    /// Write-locked only by [`Self::add_pool`] (machine bring-up).
    slots: RwLock<Vec<Arc<Slot>>>,
}

impl SharedMetaPlane {
    /// An empty plane at epoch 0 with no pools.
    pub fn new() -> SharedMetaPlane {
        SharedMetaPlane::default()
    }

    /// The slot at plane index `idx` (bindings resolve it once and keep
    /// the `Arc`, so their steady state never touches the slot table).
    pub(crate) fn slot(&self, idx: u32) -> Option<Arc<Slot>> {
        self.slots
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(idx as usize)
            .cloned()
    }

    /// [`Self::slot`], with an unknown slot reported as a `kind` error at
    /// `addr`.
    fn slot_or(&self, idx: u32, kind: CheckKind, addr: u64) -> Result<Arc<Slot>, CheckError> {
        self.slot(idx)
            .ok_or_else(|| plane_err(idx, kind, addr, "unknown pool slot"))
    }

    /// Adds a pool slot, returning its plane index. Publishes.
    pub fn add_pool(&self) -> u32 {
        let mut slots = self.slots.write().unwrap_or_else(|e| e.into_inner());
        let idx = slots.len() as u32;
        slots.push(Arc::new(Slot::new(idx, self.epoch.clone())));
        idx
    }

    /// Bulk-adopts boot-time ranges into pool `idx` with a single
    /// publish (machine bring-up: the booted pool state becomes the
    /// shared truth). All or nothing: if any range overlaps a live
    /// object or another adopted range, nothing is inserted.
    pub fn adopt(&self, idx: u32, ranges: &[(u64, u64)]) -> Result<(), CheckError> {
        let addr = ranges.first().map_or(0, |r| r.0);
        self.slot_or(idx, CheckKind::BadRegistration, addr)?
            .adopt(ranges)
    }

    /// Resets the slot range starting at `base` to `baseline` (one range
    /// list per slot, each disjoint, as
    /// [`crate::MetaPoolTable::live_ranges_by_pool`] returns them). Only
    /// slots whose live set differs are republished. All or nothing: every
    /// slot and range is validated before any slot changes. Returns how
    /// many slots published.
    pub fn reset_slots(
        &self,
        base: u32,
        baseline: &[Vec<(u64, u64)>],
    ) -> Result<usize, CheckError> {
        let slots = self.slots.read().unwrap_or_else(|e| e.into_inner());
        let mut targets = Vec::with_capacity(baseline.len());
        for (i, ranges) in baseline.iter().enumerate() {
            let idx = base + i as u32;
            let slot = slots.get(idx as usize).ok_or_else(|| {
                plane_err(idx, CheckKind::BadRegistration, 0, "unknown pool slot")
            })?;
            let mut ix = RangeIndex::new();
            insert_all(&mut ix, idx, ranges)?;
            targets.push((slot, ix));
        }
        Ok(targets.into_iter().filter(|(s, ix)| s.reset(ix)).count())
    }

    /// Registers `[addr, addr+len)` in pool `idx` and publishes that
    /// slot. Overlap with a live object, or an end past 2^64, is a bad
    /// registration, exactly as on the private path.
    pub fn register(&self, idx: u32, addr: u64, len: u64) -> Result<(), CheckError> {
        self.slot_or(idx, CheckKind::BadRegistration, addr)?
            .register(addr, len)
    }

    /// Drops the object starting at `addr` from pool `idx` and publishes
    /// that slot. A non-live or interior address is an illegal free.
    pub fn drop_obj(&self, idx: u32, addr: u64) -> Result<(u64, u64), CheckError> {
        self.slot_or(idx, CheckKind::IllegalFree, addr)?
            .drop_obj(addr)
    }

    /// Removes every object from pool `idx` (pool destruction).
    pub fn clear_pool(&self, idx: u32) {
        if let Some(s) = self.slot(idx) {
            s.clear();
        }
    }

    /// Fault injection: deregisters one live object of pool `idx`
    /// (chosen by `seed`) and re-registers only its first half, then
    /// publishes — the shared-plane counterpart of
    /// `MetaPool::inject_corrupt_metadata`.
    pub fn corrupt(&self, idx: u32, seed: u64) -> bool {
        self.slot(idx).is_some_and(|s| s.corrupt(seed))
    }

    /// The plane epoch: how many publishes every slot together has done
    /// (`Acquire`).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The published generation of pool `idx` (0 for an unknown slot).
    pub fn generation(&self, idx: u32) -> u64 {
        self.slot(idx).map_or(0, |s| s.generation())
    }

    /// Superseded snapshots still pinned by some reader — the deferred
    /// reclamation window. Returns to 0 once every reader has refreshed
    /// (quiesced) past the publishes that retired them.
    pub fn retired_live(&self) -> usize {
        let slots = self.slots.read().unwrap_or_else(|e| e.into_inner());
        slots.iter().map(|s| s.retired_live()).sum()
    }
}

fn plane_err(idx: u32, kind: CheckKind, addr: u64, detail: impl Into<String>) -> CheckError {
    CheckError {
        kind,
        pool: format!("shared{idx}"),
        addr,
        detail: detail.into(),
    }
}

/// A read handle on one slot: caches the slot's snapshot `Arc` and
/// refreshes it only when the slot generation moves.
#[derive(Clone, Debug)]
pub(crate) struct SlotReader {
    slot: Arc<Slot>,
    snap: Arc<PoolSnap>,
}

impl SlotReader {
    pub(crate) fn new(slot: Arc<Slot>) -> SlotReader {
        let snap = slot.current();
        SlotReader { slot, snap }
    }

    /// The slot this reader watches.
    pub(crate) fn slot(&self) -> &Slot {
        &self.slot
    }

    /// The generation of the pinned snapshot.
    #[inline]
    pub(crate) fn pinned(&self) -> u64 {
        self.snap.gen
    }

    /// The live ranges of the pinned snapshot.
    #[inline]
    pub(crate) fn ranges(&self) -> &RangeIndex {
        &self.snap.ranges
    }

    /// Validates the pinned snapshot against the slot generation,
    /// refreshing if it moved. Returns whether it refreshed. Steady state
    /// is one `Acquire` load and a compare; the lock is taken only on
    /// change. After it returns, an answer from the pinned snapshot is at
    /// least as new as any publish on this slot that happened-before the
    /// call — a drop that published generation G can never be answered
    /// from an older one.
    #[inline]
    pub(crate) fn pin(&mut self) -> bool {
        if self.slot.generation() == self.snap.gen {
            return false;
        }
        self.refresh();
        true
    }

    #[cold]
    fn refresh(&mut self) {
        self.snap = self.slot.current();
    }
}

/// A standalone read handle on a whole plane (tests, diagnostics,
/// benchmarks): pins each slot's snapshot on first use and refreshes a
/// slot only when that slot's generation moves.
/// [`crate::metapool::MetaPool`] bindings hold a per-slot reader instead.
#[derive(Clone, Debug)]
pub struct PlaneReader {
    plane: Arc<SharedMetaPlane>,
    /// Per plane slot, filled on first use.
    pins: Vec<Option<SlotReader>>,
    /// Generation-change refreshes this reader performed (diagnostics).
    pub refreshes: u64,
}

impl PlaneReader {
    /// A reader on `plane`; it pins nothing until its first lookup.
    pub fn new(plane: Arc<SharedMetaPlane>) -> PlaneReader {
        PlaneReader {
            plane,
            pins: Vec::new(),
            refreshes: 0,
        }
    }

    /// The plane this reader is attached to.
    pub fn plane(&self) -> &Arc<SharedMetaPlane> {
        &self.plane
    }

    /// Pins pool `idx` — refreshing it if its slot generation moved —
    /// and returns the pinned snapshot (`None` for an unknown slot).
    fn pinned_snap(&mut self, idx: u32) -> Option<&PoolSnap> {
        let i = idx as usize;
        if self.pins.get(i).is_none_or(Option::is_none) {
            let slot = self.plane.slot(idx)?;
            if self.pins.len() <= i {
                self.pins.resize(i + 1, None);
            }
            self.pins[i] = Some(SlotReader::new(slot));
        }
        let r = self.pins[i].as_mut()?;
        if r.pin() {
            self.refreshes += 1;
        }
        Some(&r.snap)
    }

    /// Validates the pinned snapshot of pool `idx` against its slot
    /// generation, refreshing if it moved. Returns the generation now
    /// pinned (0 for an unknown slot).
    pub fn pin(&mut self, idx: u32) -> u64 {
        self.pinned_snap(idx).map_or(0, |s| s.gen)
    }

    /// Generation-validated lookup of `addr` in pool `idx`: the
    /// containing range, if any.
    pub fn lookup(&mut self, idx: u32, addr: u64) -> Option<(u64, u64)> {
        self.pinned_snap(idx)?.ranges.find(addr)
    }

    /// Live ranges of pool `idx` at its pinned generation (refreshes
    /// first).
    pub fn ranges(&mut self, idx: u32) -> Vec<(u64, u64)> {
        self.pinned_snap(idx)
            .map(|s| s.ranges.as_slice().to_vec())
            .unwrap_or_default()
    }

    /// Live objects of pool `idx` at its pinned generation (refreshes
    /// first).
    pub fn live_objects(&mut self, idx: u32) -> usize {
        self.pinned_snap(idx).map_or(0, |s| s.ranges.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn register_lookup_drop_publishes_epochs() {
        let plane = Arc::new(SharedMetaPlane::new());
        let mp = plane.add_pool();
        let other = plane.add_pool();
        assert_eq!(plane.epoch(), 2);
        plane.register(mp, 0x1000, 64).unwrap();
        assert_eq!(plane.epoch(), 3);
        assert_eq!(plane.generation(mp), 3);
        let mut r = PlaneReader::new(plane.clone());
        assert_eq!(r.lookup(mp, 0x1020), Some((0x1000, 0x1040)));
        assert_eq!(r.lookup(mp, 0x2000), None);
        // A publish on another slot moves the epoch but not this slot's
        // generation: the reader keeps its pin.
        plane.register(other, 0x1000, 64).unwrap();
        assert_eq!(plane.generation(mp), 3);
        assert_eq!(r.lookup(mp, 0x1020), Some((0x1000, 0x1040)));
        assert_eq!(r.refreshes, 0);
        plane.drop_obj(mp, 0x1000).unwrap();
        assert_eq!(plane.epoch(), 5);
        assert_eq!(plane.generation(mp), 5);
        // The reader's next lookup revalidates the generation and must
        // miss.
        assert_eq!(r.lookup(mp, 0x1020), None);
        assert_eq!(r.refreshes, 1);
        // The other slot's object is untouched by the drop.
        assert_eq!(r.lookup(other, 0x1020), Some((0x1000, 0x1040)));
    }

    #[test]
    fn overlap_and_illegal_free_rejected() {
        let plane = SharedMetaPlane::new();
        let mp = plane.add_pool();
        plane.register(mp, 0x1000, 64).unwrap();
        let e = plane.register(mp, 0x1020, 8).unwrap_err();
        assert_eq!(e.kind, CheckKind::BadRegistration);
        let e = plane.register(mp, 0xfff, 8).unwrap_err();
        assert_eq!(e.kind, CheckKind::BadRegistration);
        // Abutting ranges are legal.
        plane.register(mp, 0x1040, 16).unwrap();
        let e = plane.drop_obj(mp, 0x1010).unwrap_err();
        assert_eq!(e.kind, CheckKind::IllegalFree);
        let e = plane.drop_obj(mp, 0x9000).unwrap_err();
        assert_eq!(e.kind, CheckKind::IllegalFree);
        // Rejections publish nothing.
        assert_eq!(plane.generation(mp), plane.epoch());
        assert_eq!(plane.epoch(), 3);
        // Slots are separate namespaces: the same range is free in a
        // sibling slot.
        let sib = plane.add_pool();
        plane.register(sib, 0x1000, 64).unwrap();
        assert_eq!(
            plane.register(9, 0x1000, 8).unwrap_err().kind,
            CheckKind::BadRegistration
        );
    }

    #[test]
    fn a_registration_that_wraps_is_refused_and_publishes_nothing() {
        let plane = Arc::new(SharedMetaPlane::new());
        let mp = plane.add_pool();
        plane.register(mp, 0x1000, 64).unwrap();
        let epoch = plane.epoch();
        let e = plane.register(mp, u64::MAX - 8, 32).unwrap_err();
        assert_eq!(e.kind, CheckKind::BadRegistration);
        assert!(e.detail.contains("wraps"), "{}", e.detail);
        assert_eq!(plane.epoch(), epoch);
        let mut r = PlaneReader::new(plane.clone());
        assert_eq!(r.ranges(mp), vec![(0x1000, 0x1040)]);
        assert_eq!(r.lookup(mp, 8), None, "no inverted range was published");
    }

    #[test]
    fn deferred_reclamation_tracks_pinned_readers() {
        let plane = Arc::new(SharedMetaPlane::new());
        let mp = plane.add_pool();
        let other = plane.add_pool();
        plane.register(mp, 0x1000, 64).unwrap();
        let mut r1 = PlaneReader::new(plane.clone());
        let mut r2 = PlaneReader::new(plane.clone());
        r1.pin(mp);
        r2.pin(mp);
        // A publish on another slot retires nothing the readers pin.
        plane.register(other, 0x1000, 64).unwrap();
        assert_eq!(plane.retired_live(), 0);
        // A publish on the pinned slot retires the snapshot both hold.
        plane.register(mp, 0x2000, 64).unwrap();
        assert_eq!(plane.retired_live(), 1);
        // One reader quiesces: the old generation is still pinned.
        r1.pin(mp);
        assert_eq!(plane.retired_live(), 1);
        // Both quiesced: reclaimed.
        r2.pin(mp);
        assert_eq!(plane.retired_live(), 0);
    }

    #[test]
    fn concurrent_readers_never_see_stale_epoch_answers() {
        // Writers register/drop a churn object — one on the read slot,
        // one on a sibling slot — while readers hammer lookups; each
        // lookup asserts the answering snapshot is at least as new as
        // the slot generation observed before the call.
        let plane = Arc::new(SharedMetaPlane::new());
        let mp = plane.add_pool();
        let sib = plane.add_pool();
        plane.register(mp, 0x1000, 64).unwrap(); // stable object
        let stop = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            let writers: Vec<_> = [mp, sib]
                .into_iter()
                .map(|slot| {
                    let plane = plane.clone();
                    let stop = stop.clone();
                    s.spawn(move || {
                        for _ in 0..200 {
                            plane.register(slot, 0x8000, 32).unwrap();
                            plane.drop_obj(slot, 0x8000).unwrap();
                        }
                        stop.fetch_add(1, Ordering::AcqRel);
                    })
                })
                .collect();
            for _ in 0..3 {
                let plane = plane.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let mut r = PlaneReader::new(plane.clone());
                    while stop.load(Ordering::Acquire) < 2 {
                        let before = plane.generation(mp);
                        assert!(r.pin(mp) >= before, "stale snapshot pinned");
                        // The stable object is always visible; the churn
                        // object may or may not be, but an answer from an
                        // old generation is impossible per the assert
                        // above.
                        assert_eq!(r.lookup(mp, 0x1010), Some((0x1000, 0x1040)));
                    }
                    // Writers quiesced: the churn object was dropped last,
                    // so it must now be invisible — a stale hit here
                    // would be a missed use-after-free.
                    assert_eq!(r.lookup(mp, 0x8010), None);
                    assert_eq!(r.lookup(sib, 0x8010), None);
                });
            }
            for w in writers {
                w.join().unwrap();
            }
        });
    }

    #[test]
    fn rejected_adopt_leaves_register_and_lookup_in_agreement() {
        let plane = Arc::new(SharedMetaPlane::new());
        let mp = plane.add_pool();
        let epoch = plane.epoch();
        // The second range overlaps the first: the whole adopt fails.
        let e = plane
            .adopt(mp, &[(0x1000, 0x1040), (0x1020, 0x1030)])
            .unwrap_err();
        assert_eq!(e.kind, CheckKind::BadRegistration);
        assert_eq!(plane.epoch(), epoch, "a rejected adopt publishes nothing");
        let mut r = PlaneReader::new(plane.clone());
        let visible = r.lookup(mp, 0x1000).is_some();
        let registered = plane.register(mp, 0x1000, 8);
        assert_eq!(
            visible,
            registered.is_err(),
            "lookup and register disagree on whether 0x1000 is live"
        );
        assert!(!visible, "the first range of a rejected adopt leaked in");
    }

    #[test]
    fn reset_slots_republishes_only_changed_slots_all_or_nothing() {
        let plane = SharedMetaPlane::new();
        let base = plane.add_pool();
        plane.add_pool();
        let baseline = vec![
            vec![(0x1000, 0x1040)],
            vec![(0x2000, 0x2010), (0x2010, 0x2020)],
        ];
        assert_eq!(plane.reset_slots(base, &baseline).unwrap(), 2);
        // Already at the baseline: nothing publishes.
        let epoch = plane.epoch();
        assert_eq!(plane.reset_slots(base, &baseline).unwrap(), 0);
        assert_eq!(plane.epoch(), epoch);
        // Dirty one slot: only it republishes.
        plane.register(base + 1, 0x3000, 8).unwrap();
        let gen0 = plane.generation(base);
        assert_eq!(plane.reset_slots(base, &baseline).unwrap(), 1);
        assert_eq!(plane.generation(base), gen0);
        let s1 = plane.slot(base + 1).unwrap();
        assert_eq!(s1.ranges(), vec![(0x2000, 0x2010), (0x2010, 0x2020)]);
        // A bad baseline in the second slot changes neither slot.
        plane.register(base, 0x5000, 8).unwrap();
        let bad = vec![
            vec![(0x1000, 0x1040)],
            vec![(0x2000, 0x2010), (0x2008, 0x2020)],
        ];
        let epoch = plane.epoch();
        assert!(plane.reset_slots(base, &bad).is_err());
        assert_eq!(plane.epoch(), epoch);
        let s0 = plane.slot(base).unwrap();
        assert_eq!(s0.ranges(), vec![(0x1000, 0x1040), (0x5000, 0x5008)]);
        // Past the last slot is rejected too.
        assert!(plane.reset_slots(base + 1, &baseline).is_err());
    }

    /// The publish invariant: a slot's published snapshot holds ascending,
    /// disjoint, non-empty ranges, at exactly the slot's generation.
    fn published_is_well_formed(plane: &SharedMetaPlane, slots: u32) -> Result<(), String> {
        for idx in 0..slots {
            let slot = plane.slot(idx).expect("slot exists");
            let st = slot.locked();
            let ranges = st.snap.ranges.as_slice();
            if ranges.iter().any(|&(s, e)| s >= e) || ranges.windows(2).any(|w| w[0].1 > w[1].0) {
                return Err(format!("slot {idx}: published {ranges:?}"));
            }
            if st.snap.gen != slot.generation() {
                return Err(format!(
                    "slot {idx}: snapshot gen {} != slot generation {}",
                    st.snap.gen,
                    slot.generation()
                ));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn every_operation_leaves_each_slot_published_as_authoritative(
            ops in prop::collection::vec((0u8..6, 0u32..3, 0u64..12, 1u64..4, any::<u64>()), 1..48),
        ) {
            const SLOTS: u32 = 3;
            let plane = Arc::new(SharedMetaPlane::new());
            for _ in 0..SLOTS {
                plane.add_pool();
            }
            let mut reader = PlaneReader::new(plane.clone());
            // 12 object positions, 0x40 apart; lengths of 1-3 × 0x20 can
            // overlap a neighbour, so rejections are exercised too.
            let addr = |k: u64| 0x1_0000 + k * 0x40;
            for &(op, slot, k, len, seed) in &ops {
                let before: Vec<u64> = (0..SLOTS).map(|i| plane.generation(i)).collect();
                match op {
                    0 => {
                        let _ = plane.register(slot, addr(k), len * 0x20);
                    }
                    1 => {
                        let _ = plane.drop_obj(slot, addr(k));
                    }
                    2 => {
                        // 0x40 apart with up to 0x80 bytes each: the
                        // adopted ranges can overlap one another.
                        let ranges: Vec<(u64, u64)> = (0..len)
                            .map(|j| (addr(k + j), addr(k + j) + 0x20 * (seed % 4 + 1)))
                            .collect();
                        let was = plane.slot(slot).unwrap().ranges();
                        if plane.adopt(slot, &ranges).is_err() {
                            prop_assert_eq!(plane.slot(slot).unwrap().ranges(), was);
                        }
                    }
                    3 => {
                        let base = slot.min(SLOTS - 2);
                        let baseline: Vec<Vec<(u64, u64)>> = (0..2u64)
                            .map(|j| (0..(seed >> (j * 8)) % 3)
                                .map(|m| (addr(k + m * 2 + j), addr(k + m * 2 + j) + 0x30 * len))
                                .collect())
                            .collect();
                        let was: Vec<_> = (0..2).map(|j| plane.slot(base + j).unwrap().ranges()).collect();
                        match plane.reset_slots(base, &baseline) {
                            Ok(_) => {
                                for j in 0..2u32 {
                                    let want: Vec<(u64, u64)> = baseline[j as usize]
                                        .iter()
                                        .map(|&(s, e)| (s, e.max(s + 1)))
                                        .collect();
                                    prop_assert_eq!(plane.slot(base + j).unwrap().ranges(), want);
                                }
                            }
                            Err(_) => {
                                for j in 0..2u32 {
                                    prop_assert_eq!(
                                        &plane.slot(base + j).unwrap().ranges(),
                                        &was[j as usize]
                                    );
                                }
                            }
                        }
                    }
                    4 => plane.clear_pool(slot),
                    _ => {
                        plane.corrupt(slot, seed);
                    }
                }
                published_is_well_formed(&plane, SLOTS)?;
                for i in 0..SLOTS {
                    let now = plane.generation(i);
                    prop_assert!(now >= before[i as usize], "slot {} generation went backwards", i);
                    prop_assert!(now <= plane.epoch());
                    // A standalone reader agrees with the published set
                    // at every probe address of every slot.
                    let auth = plane.slot(i).unwrap().ranges();
                    for probe in 0..20u64 {
                        let a = addr(probe) + 0x10;
                        let want = auth.iter().copied().find(|&(s, e)| s <= a && a < e);
                        prop_assert_eq!(reader.lookup(i, a), want, "slot {} addr {:#x}", i, a);
                    }
                }
            }
        }
    }
}
