//! The sorted range index: the object registry behind every metapool
//! lookup (DESIGN.md §4.1).
//!
//! A metapool's live objects are disjoint byte ranges, so a sorted list
//! of them answers "which object contains `addr`" with one binary search,
//! and a list of length one answers it with two compares. Every pool
//! that runs the fast path owns one index; the standalone plane in
//! [`crate::shared`] publishes an immutable one per mutation.

/// A sorted list of disjoint, non-empty ranges `[start, end)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct RangeIndex {
    ranges: Vec<(u64, u64)>,
}

impl RangeIndex {
    /// An empty index.
    pub(crate) fn new() -> RangeIndex {
        RangeIndex::default()
    }

    /// Number of ranges.
    pub(crate) fn len(&self) -> usize {
        self.ranges.len()
    }

    /// The ranges, ascending.
    pub(crate) fn as_slice(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// The lone range of an index that holds exactly one. Two compares
    /// against it then answer any lookup, hit or definitive miss.
    #[inline]
    pub(crate) fn only(&self) -> Option<(u64, u64)> {
        match self.ranges[..] {
            [range] => Some(range),
            _ => None,
        }
    }

    /// The range containing `addr`, if any.
    pub(crate) fn find(&self, addr: u64) -> Option<(u64, u64)> {
        match self.ranges.partition_point(|&(start, _)| start <= addr) {
            0 => None,
            i => {
                let (start, end) = self.ranges[i - 1];
                (addr < end).then_some((start, end))
            }
        }
    }

    /// The end of `[start, start + len)`, or why no range has one: it is
    /// empty or wraps past 2^64.
    pub(crate) fn end_of(start: u64, len: u64) -> Result<u64, String> {
        match start.checked_add(len) {
            Some(_) if len == 0 => Err("empty range".into()),
            Some(end) => Ok(end),
            None => Err(format!("range of {len:#x} bytes wraps past 2^64")),
        }
    }

    /// Inserts `[start, start + len)`. A range that [`Self::end_of`]
    /// refuses or that overlaps a live one is refused with the reason,
    /// and the index is left unchanged.
    pub(crate) fn insert(&mut self, start: u64, len: u64) -> Result<(), String> {
        let end = Self::end_of(start, len)?;
        let i = self.ranges.partition_point(|&(s, _)| s < start);
        let prev = i.checked_sub(1).map(|p| self.ranges[p]);
        let next = self.ranges.get(i).copied();
        for (s, e) in prev.into_iter().chain(next) {
            if s < end && start < e {
                return Err(format!("overlaps live object [{s:#x}, {e:#x})"));
            }
        }
        self.ranges.insert(i, (start, end));
        Ok(())
    }

    /// Removes the range starting exactly at `start`, returning it.
    pub(crate) fn remove(&mut self, start: u64) -> Option<(u64, u64)> {
        let i = self.ranges.binary_search_by_key(&start, |&(s, _)| s).ok()?;
        Some(self.ranges.remove(i))
    }

    /// Removes every range, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.ranges.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_answers_hits_gaps_and_edges() {
        let mut ix = RangeIndex::new();
        assert_eq!(ix.find(0), None);
        ix.insert(0x2000, 0x40).unwrap();
        ix.insert(0x1000, 0x40).unwrap();
        ix.insert(0x1040, 0x10).unwrap(); // abuts its predecessor
        assert_eq!(
            ix.as_slice(),
            [(0x1000, 0x1040), (0x1040, 0x1050), (0x2000, 0x2040)]
        );
        for (addr, want) in [
            (0xfff, None),
            (0x1000, Some((0x1000, 0x1040))),
            (0x103f, Some((0x1000, 0x1040))),
            (0x1040, Some((0x1040, 0x1050))),
            (0x1050, None),
            (0x2020, Some((0x2000, 0x2040))),
            (0x2040, None),
            (u64::MAX, None),
        ] {
            assert_eq!(ix.find(addr), want, "{addr:#x}");
        }
        assert_eq!(ix.only(), None);
        assert_eq!(ix.remove(0x1000), Some((0x1000, 0x1040)));
        assert_eq!(ix.remove(0x1000), None);
        assert_eq!(ix.remove(0x2010), None, "interior start");
        assert_eq!(ix.remove(0x1040), Some((0x1040, 0x1050)));
        assert_eq!(ix.only(), Some((0x2000, 0x2040)));
        ix.clear();
        assert_eq!(ix.len(), 0);
    }

    #[test]
    fn insert_refuses_overlaps_on_either_side() {
        let mut ix = RangeIndex::new();
        ix.insert(100, 50).unwrap();
        ix.insert(300, 50).unwrap();
        for (start, len) in [
            (100, 50),
            (149, 1),
            (90, 20),
            (90, 300),
            (120, 4),
            (250, 51),
        ] {
            let e = ix.insert(start, len).unwrap_err();
            assert!(
                e.starts_with("overlaps live object"),
                "[{start}, +{len}): {e}"
            );
        }
        assert_eq!(ix.insert(40, 0).unwrap_err(), "empty range");
        ix.insert(150, 150).unwrap(); // fills the gap exactly
        ix.insert(99, 1).unwrap();
        assert_eq!(ix.len(), 4);
        ix.insert(u64::MAX - 5, 5).unwrap(); // ends exactly at 2^64 - 1
        assert_eq!(ix.find(u64::MAX - 1), Some((u64::MAX - 5, u64::MAX)));
    }

    #[test]
    fn insert_refuses_a_range_that_wraps() {
        let mut ix = RangeIndex::new();
        ix.insert(0x10, 8).unwrap();
        let before = ix.clone();
        let e = ix.insert(u64::MAX - 8, 32).unwrap_err();
        assert!(e.contains("wraps"), "{e}");
        assert_eq!(ix, before);
        assert_eq!(ix.find(8), None, "no inverted range was stored");
    }

    #[test]
    fn randomized_against_model() {
        let mut ix = RangeIndex::new();
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..4000 {
            let start = (rng() % 1000) * 8;
            let len = rng() % 64 + 1;
            match rng() % 3 {
                0 => {
                    let overlaps = model.iter().any(|&(s, e)| s < start + len && start < e);
                    assert_eq!(ix.insert(start, len).is_ok(), !overlaps);
                    if !overlaps {
                        model.push((start, start + len));
                    }
                }
                1 => {
                    let addr = rng() % 8200;
                    let want = model.iter().copied().find(|&(s, e)| s <= addr && addr < e);
                    assert_eq!(ix.find(addr), want, "find {addr}");
                }
                _ => {
                    let want = model.iter().position(|&(s, _)| s == start);
                    assert_eq!(ix.remove(start), want.map(|i| model.swap_remove(i)));
                }
            }
            assert_eq!(ix.len(), model.len());
            assert_eq!(ix.only(), (model.len() == 1).then(|| model[0]));
        }
    }
}
