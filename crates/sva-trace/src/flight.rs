//! The always-on flight recorder: a third tracer mode between
//! [`NullTracer`](crate::NullTracer) (blind) and
//! [`RingTracer`](crate::RingTracer) (full attribution, expensive).
//!
//! The [`FlightRecorder`] is what a production machine flies with. It
//! records only the high-signal event classes — syscall spans, IRQ
//! delivery, violations, and recovery traffic (unwinds, quarantines,
//! domain push/pop) — into a small fixed-size tail buffer with violations
//! and recovery events pinned against wraparound. Everything else
//! (per-instruction retirement, per-check execution, SVA-OS spans, pool
//! registration churn) is *outside* [`FlightRecorder::WANTED`], so those
//! instrumentation points monomorphize away exactly as they do for
//! `NullTracer`: the repeat-hit check path of a flight-recorded machine is
//! the same compiled code as an untraced one. Check *failures* are still
//! captured, because the VM emits a distinct `Violation` event when a
//! check fires.
//!
//! The tail is all it keeps: crash bundles, `svadbg` and the fault
//! campaign read it, and `VmStats` already counts every recovery event.
//! A snapshot restore empties the tail and keeps the configured
//! capacities.

use crate::event::{EventClass, TimedEvent, TraceEvent};
use crate::ring::{EventRing, RingConfig};
use crate::tracer::Tracer;

/// Flight-recorder construction options.
#[derive(Clone, Debug)]
pub struct FlightConfig {
    /// Tail-buffer capacity (events). Small by design: this is a black
    /// box, not a profiler.
    pub capacity: usize,
    /// Side-buffer capacity for pinned (violation/recovery) records
    /// promoted on wraparound.
    pub pinned_capacity: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            capacity: 256,
            pinned_capacity: 128,
        }
    }
}

/// The always-on tail recorder. See the module docs for what it keeps.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    cfg: FlightConfig,
    tail: EventRing,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(FlightConfig::default())
    }
}

impl FlightRecorder {
    /// Creates a recorder with the given configuration.
    pub fn new(cfg: FlightConfig) -> FlightRecorder {
        FlightRecorder {
            tail: EventRing::new(RingConfig {
                capacity: cfg.capacity,
                pinned: vec![
                    EventClass::Violation,
                    EventClass::Recovery,
                    EventClass::Repair,
                ],
                pinned_capacity: cfg.pinned_capacity,
            }),
            cfg,
        }
    }
}

impl Tracer for FlightRecorder {
    const ENABLED: bool = true;

    /// Only the high-signal classes. `Inst`/`Os`/`Check`/`Pool`
    /// instrumentation compiles away entirely — that exclusion, not any
    /// cleverness in `record`, is what keeps flight recording within noise
    /// of `NullTracer` on the repeat-hit check path (gated in
    /// `bench_gate`).
    const WANTED: u16 = EventClass::Syscall.bit()
        | EventClass::Irq.bit()
        | EventClass::Violation.bit()
        | EventClass::Recovery.bit()
        | EventClass::Repair.bit();

    fn record(&mut self, ts: u64, event: TraceEvent) {
        self.tail.push(ts, event);
    }

    fn recent_events(&self) -> Vec<TimedEvent> {
        self.tail.iter().cloned().collect()
    }

    fn on_restore(&mut self, _cycles: u64) {
        // The black box restarts at the restore point: the restored image
        // is a different timeline, and a crash after a restore should not
        // show pre-restore events as if they led up to it.
        *self = FlightRecorder::new(self.cfg.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys_exit(num: i64, cost: u64) -> TraceEvent {
        TraceEvent::SyscallExit { num, cost }
    }

    #[test]
    fn wanted_mask_excludes_hot_classes() {
        assert!(FlightRecorder::wants(EventClass::Syscall));
        assert!(FlightRecorder::wants(EventClass::Irq));
        assert!(FlightRecorder::wants(EventClass::Violation));
        assert!(FlightRecorder::wants(EventClass::Recovery));
        assert!(!FlightRecorder::wants(EventClass::Inst));
        assert!(!FlightRecorder::wants(EventClass::Check));
        assert!(!FlightRecorder::wants(EventClass::Os));
        assert!(!FlightRecorder::wants(EventClass::Pool));
        // And the null/ring reference points.
        assert!(!crate::NullTracer::wants(EventClass::Violation));
        assert!(crate::RingTracer::wants(EventClass::Inst));
    }

    #[test]
    fn violations_and_recovery_survive_tail_wraparound() {
        let mut f = FlightRecorder::new(FlightConfig {
            capacity: 4,
            pinned_capacity: 16,
        });
        f.record(
            0,
            TraceEvent::Violation {
                check: "pchk.lscheck".into(),
                pool: "MP1".into(),
                addr: 0xbad,
                detail: "oob".into(),
            },
        );
        f.record(
            1,
            TraceEvent::PoolQuarantine {
                pool: 1,
                violations: 1,
                poisoned: true,
            },
        );
        for i in 2..200 {
            f.record(i, sys_exit(3, 10));
        }
        let tail = f.recent_events();
        assert!(tail
            .iter()
            .any(|e| matches!(e.event, TraceEvent::Violation { .. })));
        assert!(tail
            .iter()
            .any(|e| matches!(e.event, TraceEvent::PoolQuarantine { .. })));
        // Tail stays timestamp-ordered despite promotion.
        assert!(tail.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn restore_clears_the_black_box() {
        let mut f = FlightRecorder::default();
        f.record(0, sys_exit(1, 10));
        f.record(
            1,
            TraceEvent::IrqDeliver {
                vector: 32,
                cost: 40,
            },
        );
        f.on_restore(1000);
        assert!(f.recent_events().is_empty());
        f.record(1001, sys_exit(2, 20));
        assert_eq!(f.recent_events().len(), 1);
    }

    #[test]
    fn restore_keeps_the_configured_capacity() {
        // 300 held: the 256-slot ring plus 44 promoted pinned records.
        let mut f = FlightRecorder::default();
        for i in 0..300 {
            f.record(
                i,
                TraceEvent::DomainPush {
                    subsys: 1,
                    depth: 1,
                },
            );
        }
        assert_eq!(f.recent_events().len(), 300);
        f.on_restore(300);
        for i in 0..1000 {
            f.record(301 + i, sys_exit(1, 10));
        }
        assert_eq!(f.recent_events().len(), 256);

        let mut small = FlightRecorder::new(FlightConfig {
            capacity: 8,
            ..FlightConfig::default()
        });
        small.on_restore(0);
        for i in 0..100 {
            small.record(i, sys_exit(1, 10));
        }
        assert_eq!(small.recent_events().len(), 8);
    }
}
