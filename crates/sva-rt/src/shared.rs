//! A standalone per-slot published metadata plane, kept for the
//! benchmark's plane probe.
//!
//! No machine reads this type. Every vCPU of an `sva_vm::SmpMachine`
//! checks against the private metapool table its fork clones, the path
//! a 1-vCPU machine takes (DESIGN.md §4.9). `benchmark/src/smp.rs` still
//! times this plane's write and read paths (`plane_probe`), so the type
//! stays until the next change to the benchmark, which deletes it with
//! that probe (ROADMAP item 6).
//!
//! The plane is an array of *slots*, each the live ranges of one pool,
//! split the RCU way:
//!
//! * A registration or drop copies the slot's published ranges, edits
//!   the copy under the slot's mutex, publishes it as an immutable
//!   snapshot and then stores the slot's new generation with `Release`
//!   ordering.
//! * A [`PlaneReader`] caches each slot's snapshot `Arc` and validates it
//!   with one `Acquire` load of the slot generation per lookup; only when
//!   the generation moved does it briefly lock the slot to swap in the
//!   new snapshot. A lookup can therefore never be answered from a
//!   snapshot older than a publish that happened-before it.
//!
//! A slot's generation is the plane epoch its latest publish drew, so
//! generations are unique plane-wide and [`SharedMetaPlane::epoch`] is a
//! monotone count of every publish on every slot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

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

/// One plane slot: a pool's published ranges and the generation that
/// validates them.
#[derive(Debug)]
struct Slot {
    /// The plane's publish counter, shared by every slot.
    epoch: Arc<AtomicU64>,
    /// Generation of the published snapshot. `Release`-stored after the
    /// snapshot swap, `Acquire`-loaded by readers, so a reader that
    /// observes generation G also observes the snapshot that published it.
    gen: AtomicU64,
    /// The published snapshot, replaced whole under this mutex.
    snap: Mutex<Arc<PoolSnap>>,
}

impl Slot {
    /// An empty slot, published at a fresh epoch.
    fn new(epoch: Arc<AtomicU64>) -> Slot {
        let gen = epoch.fetch_add(1, Ordering::AcqRel) + 1;
        Slot {
            epoch,
            gen: AtomicU64::new(gen),
            snap: Mutex::new(Arc::new(PoolSnap {
                gen,
                ranges: RangeIndex::new(),
            })),
        }
    }

    fn locked(&self) -> MutexGuard<'_, Arc<PoolSnap>> {
        // A poisoned mutex means another thread panicked mid-publish; the
        // published snapshot is only ever replaced whole, so the data is
        // coherent — recover it.
        self.snap.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The published generation (`Acquire`). One atomic load — the only
    /// synchronization a steady-state reader performs per lookup.
    fn generation(&self) -> u64 {
        self.gen.load(Ordering::Acquire)
    }

    /// The published snapshot (readers call this only after a generation
    /// mismatch; the steady state never locks).
    fn current(&self) -> Arc<PoolSnap> {
        self.locked().clone()
    }

    /// Applies `edit` to a copy of the published ranges and publishes the
    /// copy at a fresh plane epoch, then stores that epoch as the slot
    /// generation (`Release`). A refused edit publishes nothing.
    fn mutate<R>(
        &self,
        edit: impl FnOnce(&mut RangeIndex) -> Result<R, String>,
    ) -> Result<R, String> {
        let mut snap = self.locked();
        let mut ranges = snap.ranges.clone();
        let out = edit(&mut ranges)?;
        let gen = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        *snap = Arc::new(PoolSnap { gen, ranges });
        self.gen.store(gen, Ordering::Release);
        Ok(out)
    }
}

/// The standalone metadata plane: a growable array of independently
/// published slots.
///
/// Cheap to share (`Arc<SharedMetaPlane>`); all methods take `&self`.
#[derive(Debug, Default)]
pub struct SharedMetaPlane {
    /// Publish counter: bumped once per publish on any slot.
    epoch: Arc<AtomicU64>,
    /// Write-locked only by [`Self::add_pool`].
    slots: RwLock<Vec<Arc<Slot>>>,
}

impl SharedMetaPlane {
    /// An empty plane at epoch 0 with no pools.
    pub fn new() -> SharedMetaPlane {
        SharedMetaPlane::default()
    }

    /// The slot at plane index `idx`.
    fn slot(&self, idx: u32) -> Option<Arc<Slot>> {
        self.slots
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(idx as usize)
            .cloned()
    }

    /// Applies `edit` to slot `idx` (see [`Slot::mutate`]); an unknown
    /// slot is a `kind` error at `addr`.
    fn mutate<R>(
        &self,
        idx: u32,
        kind: CheckKind,
        addr: u64,
        edit: impl FnOnce(&mut RangeIndex) -> Result<R, String>,
    ) -> Result<R, CheckError> {
        let slot = self
            .slot(idx)
            .ok_or_else(|| plane_err(idx, kind, addr, "unknown pool slot"))?;
        slot.mutate(edit)
            .map_err(|detail| plane_err(idx, kind, addr, detail))
    }

    /// Adds an empty pool slot, returning its plane index. Publishes.
    pub(crate) fn add_pool(&self) -> u32 {
        let mut slots = self.slots.write().unwrap_or_else(|e| e.into_inner());
        let idx = slots.len() as u32;
        slots.push(Arc::new(Slot::new(self.epoch.clone())));
        idx
    }

    /// Adds `ranges` to pool `idx` with a single publish, all or nothing:
    /// if any range overlaps a live object or another adopted range,
    /// nothing is inserted. An empty range is widened to one byte, the
    /// way every registration treats zero-sized objects.
    pub(crate) fn adopt(&self, idx: u32, ranges: &[(u64, u64)]) -> Result<(), CheckError> {
        let addr = ranges.first().map_or(0, |r| r.0);
        self.mutate(idx, CheckKind::BadRegistration, addr, |ix| {
            ranges
                .iter()
                .try_for_each(|&(start, end)| ix.insert(start, end.saturating_sub(start).max(1)))
        })
    }

    /// Registers `[addr, addr+len)` in pool `idx` and publishes that
    /// slot. Overlap with a live object, or an end past 2^64, is a bad
    /// registration, exactly as in a metapool.
    pub fn register(&self, idx: u32, addr: u64, len: u64) -> Result<(), CheckError> {
        self.mutate(idx, CheckKind::BadRegistration, addr, |ix| {
            ix.insert(addr, len.max(1))
        })
    }

    /// Drops the object starting at `addr` from pool `idx` and publishes
    /// that slot. A non-live or interior address is an illegal free.
    pub fn drop_obj(&self, idx: u32, addr: u64) -> Result<(u64, u64), CheckError> {
        self.mutate(idx, CheckKind::IllegalFree, addr, |ix| {
            ix.remove(addr)
                .ok_or_else(|| "object not live at this address".to_string())
        })
    }

    /// The plane epoch: how many publishes every slot together has done
    /// (`Acquire`).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
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

/// A read handle on a plane: pins each slot's snapshot on first use and
/// refreshes a slot only when that slot's generation moves.
#[derive(Clone, Debug)]
pub struct PlaneReader {
    plane: Arc<SharedMetaPlane>,
    /// Per plane slot, filled on first use: the slot and its pinned
    /// snapshot.
    pins: Vec<Option<(Arc<Slot>, Arc<PoolSnap>)>>,
}

impl PlaneReader {
    /// A reader on `plane`; it pins nothing until its first lookup.
    pub fn new(plane: Arc<SharedMetaPlane>) -> PlaneReader {
        PlaneReader {
            plane,
            pins: Vec::new(),
        }
    }

    /// Pins pool `idx` — refreshing it if its slot generation moved —
    /// and returns the pinned snapshot (`None` for an unknown slot).
    /// Steady state is one `Acquire` load and a compare.
    fn pinned_snap(&mut self, idx: u32) -> Option<&PoolSnap> {
        let i = idx as usize;
        if self.pins.get(i).is_none_or(Option::is_none) {
            let slot = self.plane.slot(idx)?;
            if self.pins.len() <= i {
                self.pins.resize(i + 1, None);
            }
            let snap = slot.current();
            self.pins[i] = Some((slot, snap));
        }
        let (slot, snap) = self.pins[i].as_mut()?;
        if slot.generation() != snap.gen {
            *snap = slot.current();
        }
        Some(&**snap)
    }

    /// Generation-validated lookup of `addr` in pool `idx`: the
    /// containing range, if any.
    pub fn lookup(&mut self, idx: u32, addr: u64) -> Option<(u64, u64)> {
        self.pinned_snap(idx)?.ranges.find(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The published generation of slot `idx`.
    fn slot_gen(plane: &SharedMetaPlane, idx: u32) -> u64 {
        plane.slot(idx).expect("slot exists").generation()
    }

    /// The generation of the snapshot `r` holds for slot `idx`.
    fn pinned(r: &PlaneReader, idx: u32) -> u64 {
        r.pins[idx as usize].as_ref().expect("slot pinned").1.gen
    }

    #[test]
    fn register_lookup_drop_publishes_epochs() {
        let plane = Arc::new(SharedMetaPlane::new());
        let mp = plane.add_pool();
        let other = plane.add_pool();
        assert_eq!(plane.epoch(), 2);
        plane.register(mp, 0x1000, 64).unwrap();
        assert_eq!(plane.epoch(), 3);
        assert_eq!(slot_gen(&plane, mp), 3);
        let mut r = PlaneReader::new(plane.clone());
        assert_eq!(r.lookup(mp, 0x1020), Some((0x1000, 0x1040)));
        assert_eq!(r.lookup(mp, 0x2000), None);
        // A publish on another slot moves the epoch but not this slot's
        // generation: the reader keeps its pin.
        plane.register(other, 0x1000, 64).unwrap();
        assert_eq!(slot_gen(&plane, mp), 3);
        assert_eq!(r.lookup(mp, 0x1020), Some((0x1000, 0x1040)));
        assert_eq!(pinned(&r, mp), 3);
        plane.drop_obj(mp, 0x1000).unwrap();
        assert_eq!(plane.epoch(), 5);
        assert_eq!(slot_gen(&plane, mp), 5);
        // The reader's next lookup revalidates the generation and must
        // miss.
        assert_eq!(r.lookup(mp, 0x1020), None);
        assert_eq!(pinned(&r, mp), 5);
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
        assert_eq!(slot_gen(&plane, mp), plane.epoch());
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
        assert_eq!(ranges(&plane, mp), vec![(0x1000, 0x1040)]);
        let mut r = PlaneReader::new(plane.clone());
        assert_eq!(r.lookup(mp, 8), None, "no inverted range was published");
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
                        let before = slot_gen(&plane, mp);
                        // The stable object is always visible; the churn
                        // object may or may not be, but an answer from an
                        // old generation is impossible per the assert
                        // below.
                        assert_eq!(r.lookup(mp, 0x1010), Some((0x1000, 0x1040)));
                        assert!(pinned(&r, mp) >= before, "stale snapshot pinned");
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

    /// The published ranges of slot `idx`, ascending.
    fn ranges(plane: &SharedMetaPlane, idx: u32) -> Vec<(u64, u64)> {
        plane
            .slot(idx)
            .expect("slot exists")
            .current()
            .ranges
            .as_slice()
            .to_vec()
    }

    /// The publish invariant: a slot's published snapshot holds ascending,
    /// disjoint, non-empty ranges, at exactly the slot's generation.
    fn published_is_well_formed(plane: &SharedMetaPlane, slots: u32) -> Result<(), String> {
        for idx in 0..slots {
            let slot = plane.slot(idx).expect("slot exists");
            let snap = slot.current();
            let ranges = snap.ranges.as_slice();
            if ranges.iter().any(|&(s, e)| s >= e) || ranges.windows(2).any(|w| w[0].1 > w[1].0) {
                return Err(format!("slot {idx}: published {ranges:?}"));
            }
            if snap.gen != slot.generation() {
                return Err(format!(
                    "slot {idx}: snapshot gen {} != slot generation {}",
                    snap.gen,
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
            ops in prop::collection::vec((0u8..3, 0u32..3, 0u64..12, 1u64..4, any::<u64>()), 1..48),
        ) {
            const SLOTS: u32 = 3;
            let plane = Arc::new(SharedMetaPlane::new());
            for _ in 0..SLOTS {
                plane.add_pool();
            }
            let mut reader = PlaneReader::new(plane.clone());
            let ranges_of = |idx| ranges(&plane, idx);
            // 12 object positions, 0x40 apart; lengths of 1-3 × 0x20 can
            // overlap a neighbour, so rejections are exercised too.
            let addr = |k: u64| 0x1_0000 + k * 0x40;
            for &(op, slot, k, len, seed) in &ops {
                let before: Vec<u64> = (0..SLOTS).map(|i| slot_gen(&plane, i)).collect();
                match op {
                    0 => {
                        let _ = plane.register(slot, addr(k), len * 0x20);
                    }
                    1 => {
                        let _ = plane.drop_obj(slot, addr(k));
                    }
                    _ => {
                        // 0x40 apart with up to 0x80 bytes each: the
                        // adopted ranges can overlap one another.
                        let ranges: Vec<(u64, u64)> = (0..len)
                            .map(|j| (addr(k + j), addr(k + j) + 0x20 * (seed % 4 + 1)))
                            .collect();
                        let was = ranges_of(slot);
                        if plane.adopt(slot, &ranges).is_err() {
                            prop_assert_eq!(ranges_of(slot), was);
                        }
                    }
                }
                published_is_well_formed(&plane, SLOTS)?;
                for i in 0..SLOTS {
                    let now = slot_gen(&plane, i);
                    prop_assert!(now >= before[i as usize], "slot {} generation went backwards", i);
                    prop_assert!(now <= plane.epoch());
                    // A standalone reader agrees with the published set
                    // at every probe address of every slot.
                    let auth = ranges_of(i);
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
