//! Property tests for the flight recorder's black-box guarantee: no
//! interleaving of high-signal traffic may ever lose a violation- or
//! recovery-class event to tail wraparound.

use proptest::prelude::*;
use sva_trace::{EventClass, FlightConfig, FlightRecorder, TraceEvent, Tracer};

/// One scripted push: which event to record next.
#[derive(Clone, Copy, Debug)]
enum Op {
    Syscall,
    Irq,
    Violation,
    Unwind,
    Quarantine { poisoned: bool },
    Push,
    Pop { forced: bool },
}

fn gen_script() -> impl Strategy<Value = Vec<(Op, u16)>> {
    // Selector-weighted: noise (syscalls/IRQs) dominates so small tails
    // genuinely wrap around the pinned events.
    let op = (0u8..11, any::<bool>()).prop_map(|(sel, flag)| match sel {
        0..=3 => Op::Syscall,
        4 | 5 => Op::Irq,
        6 => Op::Violation,
        7 => Op::Unwind,
        8 => Op::Quarantine { poisoned: flag },
        9 => Op::Push,
        _ => Op::Pop { forced: flag },
    });
    prop::collection::vec((op, 1u16..32), 1..64)
}

fn event_for(op: Op, ts: u64) -> TraceEvent {
    match op {
        Op::Syscall => TraceEvent::SyscallExit {
            num: (ts % 9) as i64,
            cost: 100,
        },
        Op::Irq => TraceEvent::IrqDeliver {
            vector: 32,
            cost: 40,
        },
        Op::Violation => TraceEvent::Violation {
            check: "pchk.lscheck".to_string(),
            pool: format!("MP{}", ts % 7),
            addr: ts,
            detail: format!("access #{ts}"),
        },
        Op::Unwind => TraceEvent::RecoverUnwind {
            code: 2 | (1 << 9),
            pool: (ts % 7) as u32,
            poisoned: false,
            depth: 0,
            subsys: 1,
        },
        Op::Quarantine { poisoned } => TraceEvent::PoolQuarantine {
            pool: (ts % 7) as u32,
            violations: 1,
            poisoned,
        },
        Op::Push => TraceEvent::DomainPush {
            subsys: 1,
            depth: 1,
        },
        Op::Pop { forced } => TraceEvent::DomainPop {
            subsys: 1,
            depth: 0,
            forced,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pinned_classes_survive_arbitrary_wraparound(
        script in gen_script(),
        capacity in 1usize..32,
    ) {
        let mut f = FlightRecorder::new(FlightConfig {
            capacity,
            // Large enough that the side buffer never saturates here; the
            // property under test is wraparound, not the explicit cap.
            pinned_capacity: 1 << 16,
        });
        let mut ts = 0u64;
        let mut pinned_pushed: Vec<u64> = Vec::new();
        for (op, burst) in &script {
            for _ in 0..*burst {
                let ev = event_for(*op, ts);
                if matches!(
                    ev.class(),
                    EventClass::Violation | EventClass::Recovery
                ) {
                    pinned_pushed.push(ts);
                }
                f.record(ts, ev);
                ts += 1;
            }
        }

        // Every violation/recovery event ever recorded is still in the
        // tail, in order, no matter how much traffic wrapped the ring.
        let tail = f.recent_events();
        let held: Vec<u64> = tail
            .iter()
            .filter(|e| {
                matches!(
                    e.event.class(),
                    EventClass::Violation | EventClass::Recovery
                )
            })
            .map(|e| e.ts)
            .collect();
        prop_assert_eq!(&held, &pinned_pushed,
            "pinned events lost or reordered by wraparound");

        // The tail stays globally timestamp-ordered despite promotion.
        prop_assert!(tail.windows(2).all(|w| w[0].ts <= w[1].ts));
    }
}
