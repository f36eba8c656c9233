//! Fixed-capacity event ring with pinned event classes.
//!
//! Single-writer, no locks, no allocation after construction (the pinned
//! side buffer reserves its capacity up front). Wraparound behaviour is
//! the interesting part: ordinary events are dropped oldest-first, but
//! records whose [`EventClass`] is *pinned* are promoted to a side buffer
//! instead — a safety violation observed once must survive arbitrarily
//! much later traffic.

use std::collections::VecDeque;

use crate::event::{EventClass, TimedEvent, TraceEvent};

/// Ring construction options.
#[derive(Clone, Debug)]
pub struct RingConfig {
    /// Maximum number of buffered events (oldest evicted first).
    pub capacity: usize,
    /// Event classes that wraparound must never drop.
    pub pinned: Vec<EventClass>,
    /// Maximum promoted (pinned) records kept aside; beyond this they are
    /// counted in [`EventRing::pinned_overflow`].
    pub pinned_capacity: usize,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            capacity: 64 * 1024,
            pinned: vec![EventClass::Violation],
            pinned_capacity: 4096,
        }
    }
}

/// The ring buffer.
#[derive(Clone, Debug)]
pub struct EventRing {
    buf: VecDeque<TimedEvent>,
    capacity: usize,
    pinned_mask: u16,
    pinned: Vec<TimedEvent>,
    pinned_capacity: usize,
    /// Unpinned events lost to wraparound, by [`EventClass`] index.
    dropped: [u64; EventClass::ALL.len()],
    pinned_overflow: u64,
    total: u64,
}

impl EventRing {
    /// Creates a ring from its configuration.
    pub fn new(cfg: RingConfig) -> EventRing {
        let capacity = cfg.capacity.max(1);
        let mut pinned_mask = 0u16;
        for c in &cfg.pinned {
            pinned_mask |= c.bit();
        }
        EventRing {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            pinned_mask,
            pinned: Vec::new(),
            pinned_capacity: cfg.pinned_capacity,
            dropped: [0; EventClass::ALL.len()],
            pinned_overflow: 0,
            total: 0,
        }
    }

    /// Whether a class is pinned against wraparound loss.
    pub fn is_pinned(&self, class: EventClass) -> bool {
        self.pinned_mask & class.bit() != 0
    }

    /// Appends an event, evicting the oldest record when full.
    pub fn push(&mut self, ts: u64, event: TraceEvent) {
        self.total += 1;
        if self.buf.len() == self.capacity {
            // Eviction: pinned classes are promoted, the rest are lost.
            let old = self.buf.pop_front().expect("capacity >= 1");
            let class = old.event.class();
            if self.is_pinned(class) {
                if self.pinned.len() < self.pinned_capacity {
                    self.pinned.push(old);
                } else {
                    self.pinned_overflow += 1;
                }
            } else {
                self.dropped[class as usize] += 1;
            }
        }
        self.buf.push_back(TimedEvent { ts, event });
    }

    /// Events still held, oldest first. Promoted pinned records come
    /// first; they were evicted from the front of the ring in FIFO order,
    /// so the concatenation stays timestamp-ordered.
    pub fn iter(&self) -> impl Iterator<Item = &TimedEvent> {
        self.pinned.iter().chain(self.buf.iter())
    }

    /// Number of events currently held (ring + promoted).
    pub fn len(&self) -> usize {
        self.pinned.len() + self.buf.len()
    }

    /// True if nothing was ever recorded or everything held was cleared.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever pushed.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Unpinned events lost to wraparound.
    pub fn dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Unpinned events of `class` lost to wraparound.
    pub(crate) fn dropped_of(&self, class: EventClass) -> u64 {
        self.dropped[class as usize]
    }

    /// Pinned events lost because the side buffer itself filled up.
    pub fn pinned_overflow(&self) -> u64 {
        self.pinned_overflow
    }

    /// Deterministic per-CPU merge (DESIGN.md §4.9): folds this ring's
    /// surviving events into `dst`, re-interleaving both streams by
    /// timestamp. The sort is stable, so same-timestamp events keep
    /// `dst`-before-`self` order — folding vCPU rings into one merged
    /// ring in cpu-id order always yields the same sequence. `dst` keeps
    /// its own capacity and pinning rules (re-pushing replays eviction),
    /// and the loss counters accumulate across both rings.
    pub fn fold_into(&self, dst: &mut EventRing) {
        let mut all: Vec<TimedEvent> = dst.iter().chain(self.iter()).cloned().collect();
        all.sort_by_key(|e| e.ts);
        let total = dst.total + self.total;
        dst.buf.clear();
        dst.pinned.clear();
        for (d, s) in dst.dropped.iter_mut().zip(self.dropped) {
            *d += s;
        }
        dst.pinned_overflow += self.pinned_overflow;
        for e in all {
            dst.push(e.ts, e.event);
        }
        dst.total = total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LookupLayer;

    fn inst(i: u64) -> TraceEvent {
        TraceEvent::Inst {
            func: i as u32,
            opcode: "add",
            cost: 1,
        }
    }

    fn violation(i: u64) -> TraceEvent {
        TraceEvent::Violation {
            check: "pchk.bounds".into(),
            pool: format!("MP{i}"),
            addr: i,
            detail: String::new(),
        }
    }

    #[test]
    fn wraparound_drops_oldest_unpinned() {
        let mut r = EventRing::new(RingConfig {
            capacity: 4,
            pinned: vec![],
            pinned_capacity: 0,
        });
        for i in 0..10 {
            r.push(i, inst(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.total_recorded(), 10);
        let ts: Vec<u64> = r.iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![6, 7, 8, 9]);
    }

    #[test]
    fn pinned_events_survive_wraparound() {
        let mut r = EventRing::new(RingConfig {
            capacity: 3,
            pinned: vec![EventClass::Violation],
            pinned_capacity: 64,
        });
        r.push(0, violation(0));
        for i in 1..50 {
            r.push(i, inst(i));
        }
        let held: Vec<&TimedEvent> = r.iter().collect();
        assert!(matches!(held[0].event, TraceEvent::Violation { .. }));
        assert_eq!(held[0].ts, 0);
        // Still timestamp-ordered.
        assert!(held.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn pinned_side_buffer_overflow_is_counted() {
        let mut r = EventRing::new(RingConfig {
            capacity: 1,
            pinned: vec![EventClass::Violation],
            pinned_capacity: 2,
        });
        for i in 0..5 {
            r.push(i, violation(i));
        }
        // 5 pushed, 1 in ring, 2 promoted, 2 lost to the side-buffer cap.
        assert_eq!(r.len(), 3);
        assert_eq!(r.pinned_overflow(), 2);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn fold_into_merges_by_timestamp_deterministically() {
        let mk = |ts: &[u64]| {
            let mut r = EventRing::new(RingConfig {
                capacity: 16,
                pinned: vec![],
                pinned_capacity: 0,
            });
            for &t in ts {
                r.push(t, inst(t));
            }
            r
        };
        // Two "vCPU" rings with interleaved timestamps and one tie (5).
        let cpu0 = mk(&[1, 5, 9]);
        let cpu1 = mk(&[2, 5, 7]);
        let mut merged = EventRing::new(RingConfig {
            capacity: 16,
            pinned: vec![],
            pinned_capacity: 0,
        });
        cpu0.fold_into(&mut merged);
        cpu1.fold_into(&mut merged);
        let ts: Vec<u64> = merged.iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![1, 2, 5, 5, 7, 9]);
        assert_eq!(merged.total_recorded(), 6);
        // Stable tie-break: cpu0's event at ts=5 precedes cpu1's.
        let funcs: Vec<u32> = merged
            .iter()
            .filter(|e| e.ts == 5)
            .map(|e| match e.event {
                TraceEvent::Inst { func, .. } => func,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(funcs, vec![5, 5]);
        // Same fold order → identical sequence.
        let mut again = EventRing::new(RingConfig {
            capacity: 16,
            pinned: vec![],
            pinned_capacity: 0,
        });
        cpu0.fold_into(&mut again);
        cpu1.fold_into(&mut again);
        assert_eq!(
            merged.iter().collect::<Vec<_>>(),
            again.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn fold_into_respects_destination_capacity() {
        let mut src = EventRing::new(RingConfig {
            capacity: 8,
            pinned: vec![EventClass::Violation],
            pinned_capacity: 8,
        });
        src.push(0, violation(0));
        for i in 1..6 {
            src.push(i, inst(i));
        }
        let mut dst = EventRing::new(RingConfig {
            capacity: 2,
            pinned: vec![EventClass::Violation],
            pinned_capacity: 8,
        });
        src.fold_into(&mut dst);
        // 6 events through a 2-slot ring: the violation is promoted, the
        // overflowing instructions are dropped, totals carry over.
        assert_eq!(dst.total_recorded(), 6);
        assert!(dst
            .iter()
            .any(|e| matches!(e.event, TraceEvent::Violation { .. })));
        assert_eq!(dst.dropped(), 3);
    }

    #[test]
    fn check_events_pinnable_too() {
        let mut r = EventRing::new(RingConfig {
            capacity: 2,
            pinned: vec![EventClass::Check],
            pinned_capacity: 64,
        });
        r.push(
            0,
            TraceEvent::Check {
                check: "pchk.lscheck",
                pool: 0,
                layer: LookupLayer::Tree,
                passed: false,
                cost: 16,
            },
        );
        for i in 1..10 {
            r.push(i, inst(i));
        }
        assert!(r
            .iter()
            .any(|e| matches!(e.event, TraceEvent::Check { .. })));
    }
}
