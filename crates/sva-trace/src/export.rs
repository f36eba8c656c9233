//! Exporters: Chrome `trace_event` JSON, JSONL, and a flame-style
//! top-N text report.
//!
//! All three read the same [`RingTracer`]: the ring supplies the event
//! *stream* (Chrome trace, JSONL), the online [`Profile`] supplies the
//! whole-run *aggregates* (the report), so a wrapped ring still yields a
//! complete attribution table.
//!
//! [`Profile`]: crate::tracer::Profile

use std::fmt::Write as _;

use crate::event::{json_escape, EventClass, TraceEvent};
use crate::tracer::RingTracer;

/// Serializes the buffered event stream as JSONL, one event per line.
pub fn to_jsonl(tracer: &RingTracer) -> String {
    let mut out = String::new();
    for ev in tracer.ring().iter() {
        out.push_str(&ev.to_json());
        out.push('\n');
    }
    out
}

/// Serializes the buffered event stream in Chrome `trace_event` format
/// (load the file in `about://tracing` or ui.perfetto.dev).
///
/// Mapping: SVA-OS operations and syscalls become `B`/`E` duration spans,
/// instructions become `X` complete events with `dur = cost`, and checks,
/// pool traffic, interrupts and violations become `i` instant events.
/// Virtual cycles are reported as microseconds — the unit is fictional
/// either way, and 1 cycle = 1 µs keeps the timeline readable.
///
/// The format's `otherData` metadata states what the ring lost: events
/// recorded and held, unpinned drops per [`EventClass`] (`dropped_<class>`)
/// and pinned overflow, so a wrapped trace never passes for the whole run.
/// A ring that wrapped inside a span holds the span's end but not its
/// begin; such an end is left out, since the viewer would close whatever
/// span happened to be open instead.
pub fn to_chrome_trace(tracer: &RingTracer) -> String {
    let mut events: Vec<String> = Vec::new();
    let common = "\"pid\":1,\"tid\":1";
    // Spans begun and not yet ended; the viewer nests them as a stack.
    let mut open = 0usize;
    for te in tracer.ring().iter() {
        let ts = te.ts;
        match &te.event {
            TraceEvent::Inst { func, opcode, cost } => {
                // Complete event, anchored at the start of the instruction.
                let start = ts.saturating_sub(*cost);
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"inst\",\"ph\":\"X\",\"ts\":{start},\
                     \"dur\":{cost},{common},\"args\":{{\"func\":\"{}\"}}}}",
                    json_escape(opcode),
                    json_escape(&tracer.func_name(*func))
                ));
            }
            TraceEvent::OsEnter { op } => {
                open += 1;
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"os\",\"ph\":\"B\",\"ts\":{ts},{common}}}",
                    json_escape(op)
                ));
            }
            TraceEvent::OsExit { op, cost } if open > 0 => {
                open -= 1;
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"os\",\"ph\":\"E\",\"ts\":{ts},{common},\
                     \"args\":{{\"cost\":{cost}}}}}",
                    json_escape(op)
                ));
            }
            TraceEvent::Check {
                check,
                pool,
                layer,
                passed,
                cost,
            } => {
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"check\",\"ph\":\"i\",\"ts\":{ts},{common},\
                     \"s\":\"t\",\"args\":{{\"pool\":\"{}\",\"layer\":\"{}\",\
                     \"passed\":{passed},\"cost\":{cost}}}}}",
                    json_escape(check),
                    json_escape(&tracer.pool_name(*pool)),
                    layer.name()
                ));
            }
            TraceEvent::PoolReg { pool, addr, len } => {
                events.push(format!(
                    "{{\"name\":\"pchk.reg.obj\",\"cat\":\"pool\",\"ph\":\"i\",\"ts\":{ts},\
                     {common},\"s\":\"t\",\"args\":{{\"pool\":\"{}\",\"addr\":{addr},\
                     \"len\":{len}}}}}",
                    json_escape(&tracer.pool_name(*pool))
                ));
            }
            TraceEvent::PoolDrop { pool, addr } => {
                events.push(format!(
                    "{{\"name\":\"pchk.drop.obj\",\"cat\":\"pool\",\"ph\":\"i\",\"ts\":{ts},\
                     {common},\"s\":\"t\",\"args\":{{\"pool\":\"{}\",\"addr\":{addr}}}}}",
                    json_escape(&tracer.pool_name(*pool))
                ));
            }
            TraceEvent::SyscallEnter { num } => {
                open += 1;
                events.push(format!(
                    "{{\"name\":\"syscall {num}\",\"cat\":\"syscall\",\"ph\":\"B\",\
                     \"ts\":{ts},{common}}}"
                ));
            }
            TraceEvent::SyscallExit { num, cost } if open > 0 => {
                open -= 1;
                events.push(format!(
                    "{{\"name\":\"syscall {num}\",\"cat\":\"syscall\",\"ph\":\"E\",\
                     \"ts\":{ts},{common},\"args\":{{\"cost\":{cost}}}}}"
                ));
            }
            TraceEvent::IrqDeliver { vector, cost } => {
                events.push(format!(
                    "{{\"name\":\"irq {vector}\",\"cat\":\"irq\",\"ph\":\"i\",\"ts\":{ts},\
                     {common},\"s\":\"g\",\"args\":{{\"cost\":{cost}}}}}"
                ));
            }
            TraceEvent::Violation {
                check,
                pool,
                addr,
                detail,
            } => {
                events.push(format!(
                    "{{\"name\":\"VIOLATION {}\",\"cat\":\"violation\",\"ph\":\"i\",\
                     \"ts\":{ts},{common},\"s\":\"g\",\"args\":{{\"pool\":\"{}\",\
                     \"addr\":{addr},\"detail\":\"{}\"}}}}",
                    json_escape(check),
                    json_escape(pool),
                    json_escape(detail)
                ));
            }
            TraceEvent::RecoverUnwind {
                code,
                pool,
                poisoned,
                depth,
                subsys,
            } => {
                events.push(format!(
                    "{{\"name\":\"RECOVER unwind\",\"cat\":\"recovery\",\"ph\":\"i\",\
                     \"ts\":{ts},{common},\"s\":\"g\",\"args\":{{\"code\":{code},\
                     \"pool\":\"{}\",\"poisoned\":{poisoned},\"depth\":{depth},\
                     \"subsys\":{subsys}}}}}",
                    json_escape(&tracer.pool_name(*pool))
                ));
            }
            TraceEvent::DomainPush { subsys, depth } => {
                events.push(format!(
                    "{{\"name\":\"DOMAIN push\",\"cat\":\"recovery\",\"ph\":\"i\",\
                     \"ts\":{ts},{common},\"s\":\"t\",\"args\":{{\"subsys\":{subsys},\
                     \"depth\":{depth}}}}}"
                ));
            }
            TraceEvent::DomainPop {
                subsys,
                depth,
                forced,
            } => {
                events.push(format!(
                    "{{\"name\":\"DOMAIN pop\",\"cat\":\"recovery\",\"ph\":\"i\",\
                     \"ts\":{ts},{common},\"s\":\"t\",\"args\":{{\"subsys\":{subsys},\
                     \"depth\":{depth},\"forced\":{forced}}}}}"
                ));
            }
            TraceEvent::PoolQuarantine {
                pool,
                violations,
                poisoned,
            } => {
                events.push(format!(
                    "{{\"name\":\"QUARANTINE\",\"cat\":\"recovery\",\"ph\":\"i\",\
                     \"ts\":{ts},{common},\"s\":\"g\",\"args\":{{\"pool\":\"{}\",\
                     \"violations\":{violations},\"poisoned\":{poisoned}}}}}",
                    json_escape(&tracer.pool_name(*pool))
                ));
            }
            TraceEvent::Repair { subsys, pools } => {
                events.push(format!(
                    "{{\"name\":\"REPAIR\",\"cat\":\"repair\",\"ph\":\"i\",\
                     \"ts\":{ts},{common},\"s\":\"g\",\"args\":{{\"subsys\":{subsys},\
                     \"pools\":{pools}}}}}"
                ));
            }
            TraceEvent::Probation { subsys, verdict } => {
                events.push(format!(
                    "{{\"name\":\"PROBATION\",\"cat\":\"repair\",\"ph\":\"i\",\
                     \"ts\":{ts},{common},\"s\":\"t\",\"args\":{{\"subsys\":{subsys},\
                     \"verdict\":{verdict}}}}}"
                ));
            }
            // A span end whose begin the ring dropped.
            TraceEvent::OsExit { .. } | TraceEvent::SyscallExit { .. } => {}
        }
    }
    let ring = tracer.ring();
    let mut other = format!(
        "\"recorded\":{},\"held\":{},\"pinned_overflow\":{}",
        ring.total_recorded(),
        ring.len(),
        ring.pinned_overflow()
    );
    for class in EventClass::ALL {
        let name = format!("{class:?}").to_lowercase();
        let _ = write!(other, ",\"dropped_{name}\":{}", ring.dropped_of(class));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{{other}}},\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

/// Sanitizes a metric name for the Prometheus exposition format:
/// `[a-zA-Z0-9_]` pass through, everything else becomes `_`, and the
/// whole name gains an `sva_` prefix.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("sva_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Serializes the metrics registry in the Prometheus text exposition
/// format: every counter becomes a `counter` metric, every log2 latency
/// histogram a cumulative `histogram` with `_bucket{le=...}` series at the
/// occupied bucket *upper* bounds plus the mandatory `+Inf` bucket, `_sum`
/// and `_count`. Nightly CI diffs these distributions across runs, which
/// catches a latency shift that leaves the median untouched.
pub fn to_prometheus(tracer: &RingTracer) -> String {
    metrics_to_prometheus(tracer.metrics())
}

/// [`to_prometheus`] for a bare registry — the SMP path builds one by
/// [`crate::MetricsRegistry::fold_cpu`]-ing each vCPU's counters (so the
/// export carries `sva_cpu<N>_…` series alongside the machine totals)
/// without ever attaching a tracer.
pub fn metrics_to_prometheus(m: &crate::MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, v) in m.counters() {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, h) in m.histograms() {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cumulative = 0u64;
        for (floor, count) in h.nonzero_buckets() {
            cumulative += count;
            // A log2 bucket with floor f covers [f, 2f); its Prometheus
            // upper bound is the *next* bucket floor.
            let le = if floor == 0 {
                1
            } else {
                floor.saturating_mul(2)
            };
            let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count());
        let _ = writeln!(out, "{n}_sum {}", h.sum());
        let _ = writeln!(out, "{n}_count {}", h.count());
    }
    out
}

fn top<K: Clone, V: Clone>(
    map: &std::collections::HashMap<K, V>,
    key: impl Fn(&V) -> u64,
    n: usize,
) -> Vec<(K, V)> {
    let mut rows: Vec<(K, V)> = map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    rows.sort_by_key(|(_, v)| std::cmp::Reverse(key(v)));
    rows.truncate(n);
    rows
}

/// Renders the flame-style text report: coverage, then top functions /
/// opcodes / checks / pools by attributed virtual cycles, then SVA-OS and
/// syscall tables and the metrics registry.
///
/// `total_cycles` is the VM's final cycle counter; the coverage line
/// reports what fraction of it the profile attributes.
pub fn top_report(tracer: &RingTracer, total_cycles: u64, n: usize) -> String {
    let p = tracer.profile();
    let mut out = String::new();
    let pct = |c: u64| {
        if total_cycles == 0 {
            0.0
        } else {
            100.0 * c as f64 / total_cycles as f64
        }
    };

    let _ = writeln!(out, "== sva-trace profile ==");
    let _ = writeln!(
        out,
        "total cycles {total_cycles}, attributed {} ({:.2}%), violations {}",
        p.attributed_cycles,
        100.0 * p.coverage(total_cycles),
        p.violations
    );
    let _ = writeln!(
        out,
        "events recorded {} (buffered {}, dropped {}, pinned-overflow {})",
        tracer.ring().total_recorded(),
        tracer.ring().len(),
        tracer.ring().dropped(),
        tracer.ring().pinned_overflow()
    );

    let _ = writeln!(out, "\n-- top functions (by cycles) --");
    for (func, c) in top(&p.per_func, |c| c.cycles, n) {
        let _ = writeln!(
            out,
            "{:>12} cyc {:>6.2}% {:>10} inst  {}",
            c.cycles,
            pct(c.cycles),
            c.count,
            tracer.func_name(func)
        );
    }

    let _ = writeln!(out, "\n-- top opcodes (by cycles) --");
    for (op, c) in top(&p.per_opcode, |c| c.cycles, n) {
        let _ = writeln!(
            out,
            "{:>12} cyc {:>6.2}% {:>10} inst  {op}",
            c.cycles,
            pct(c.cycles),
            c.count
        );
    }

    let _ = writeln!(out, "\n-- top checks (by cycles) --");
    for (check, c) in top(&p.per_check, |c| c.cycles, n) {
        let _ = writeln!(
            out,
            "{:>12} cyc {:>6.2}% {:>10} exec {:>4} failed  {check}",
            c.cycles,
            pct(c.cycles),
            c.count,
            c.failed
        );
    }

    let _ = writeln!(out, "\n-- top pools (by check cycles) --");
    for (pool, pp) in top(&p.per_pool, |p| p.check_cycles, n) {
        let _ = writeln!(
            out,
            "{:>12} cyc {:>10} chk (single {} cache {} page {} tree {}) reg {} drop {}  {}",
            pp.check_cycles,
            pp.checks(),
            pp.singleton_hits,
            pp.cache_hits,
            pp.page_hits,
            pp.tree_walks,
            pp.registrations,
            pp.drops,
            tracer.pool_name(pool)
        );
    }

    if !p.per_os.is_empty() {
        let _ = writeln!(out, "\n-- SVA-OS operations (by cycles) --");
        for (op, c) in top(&p.per_os, |c| c.cycles, n) {
            let _ = writeln!(out, "{:>12} cyc {:>10} calls  {op}", c.cycles, c.count);
        }
    }

    if !p.per_syscall.is_empty() {
        let _ = writeln!(out, "\n-- syscalls (by cycles in kernel) --");
        for (num, c) in top(&p.per_syscall, |c| c.cycles, n) {
            let _ = writeln!(
                out,
                "{:>12} cyc {:>10} calls  syscall {num}",
                c.cycles, c.count
            );
        }
    }

    let m = tracer.metrics();
    if m.counters().next().is_some() || m.histograms().next().is_some() {
        let _ = writeln!(out, "\n-- metrics --");
        for (name, v) in m.counters() {
            let _ = writeln!(out, "{name} = {v}");
        }
        for (name, h) in m.histograms() {
            let _ = writeln!(out, "{name}: {h}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LookupLayer, TimedEvent};
    use crate::tracer::Tracer;

    fn traced() -> RingTracer {
        let mut t = RingTracer::default();
        t.note_function_names(&["boot".into(), "sys_write".into()]);
        t.note_pool_names(&["MP_kernel".into()]);
        t.record(
            1,
            TraceEvent::Inst {
                func: 0,
                opcode: "call",
                cost: 1,
            },
        );
        t.record(2, TraceEvent::OsEnter { op: "sva.syscall" });
        t.record(3, TraceEvent::SyscallEnter { num: 4 });
        t.record(
            20,
            TraceEvent::Check {
                check: "pchk.lscheck",
                pool: 0,
                layer: LookupLayer::Cache,
                passed: true,
                cost: 16,
            },
        );
        t.record(
            21,
            TraceEvent::PoolReg {
                pool: 0,
                addr: 0x40,
                len: 16,
            },
        );
        t.record(
            22,
            TraceEvent::PoolDrop {
                pool: 0,
                addr: 0x40,
            },
        );
        t.record(40, TraceEvent::SyscallExit { num: 4, cost: 37 });
        t.record(
            41,
            TraceEvent::OsExit {
                op: "sva.syscall",
                cost: 39,
            },
        );
        t.record(
            60,
            TraceEvent::IrqDeliver {
                vector: 32,
                cost: 40,
            },
        );
        t.record(
            70,
            TraceEvent::Violation {
                check: "pchk.bounds".into(),
                pool: "MP_kernel".into(),
                addr: 0xbad,
                detail: "out of object".into(),
            },
        );
        t
    }

    #[test]
    fn jsonl_round_trips_through_the_codec() {
        let t = traced();
        let jsonl = to_jsonl(&t);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), t.ring().len());
        for line in lines {
            assert!(TimedEvent::from_json(line).is_some(), "bad line: {line}");
        }
    }

    #[test]
    fn chrome_trace_has_balanced_spans_and_all_events() {
        let t = traced();
        let chrome = to_chrome_trace(&t);
        assert!(chrome.contains("\"traceEvents\""));
        let b = chrome.matches("\"ph\":\"B\"").count();
        let e = chrome.matches("\"ph\":\"E\"").count();
        assert_eq!(b, 2); // os span + syscall span
        assert_eq!(b, e);
        assert!(chrome.contains("\"name\":\"VIOLATION pchk.bounds\""));
        assert!(chrome.contains("MP_kernel"));
        // The whole thing must be loadable JSON at least at the line level:
        // every event line we emitted parses as a flat-ish object start.
        assert!(chrome.matches("{\"name\"").count() >= t.ring().len());
    }

    #[test]
    fn chrome_trace_states_what_the_ring_dropped() {
        let mut t = RingTracer::new(crate::RingConfig {
            capacity: 4,
            pinned: vec![EventClass::Violation],
            pinned_capacity: 1,
        });
        // Ten events of three classes through four slots: of the six
        // evicted, the instructions and syscalls are dropped, the first
        // violation is promoted and the second overflows the side buffer.
        for i in 0..10 {
            let ev = match i % 3 {
                0 => TraceEvent::Inst {
                    func: 0,
                    opcode: "add",
                    cost: 1,
                },
                1 => TraceEvent::SyscallEnter { num: 4 },
                _ => TraceEvent::Violation {
                    check: "pchk.bounds".into(),
                    pool: "MP".into(),
                    addr: i,
                    detail: String::new(),
                },
            };
            t.record(i, ev);
        }
        let chrome = to_chrome_trace(&t);
        let other = chrome
            .split_once("\"otherData\":{")
            .and_then(|(_, rest)| rest.split_once('}'))
            .expect("otherData object")
            .0;
        let field = |key: &str| -> u64 {
            let (_, rest) = other
                .split_once(&format!("\"{key}\":"))
                .unwrap_or_else(|| panic!("{key} missing from {other}"));
            rest.split(',').next().unwrap().parse().unwrap()
        };
        let ring = t.ring();
        assert_eq!(field("recorded"), ring.total_recorded());
        assert_eq!(field("held"), ring.len() as u64);
        assert_eq!(field("pinned_overflow"), ring.pinned_overflow());
        let mut per_class = 0;
        for class in EventClass::ALL {
            let n = field(&format!("dropped_{}", format!("{class:?}").to_lowercase()));
            assert_eq!(n, ring.dropped_of(class), "{class:?}");
            per_class += n;
        }
        assert_eq!(per_class, ring.dropped());
        assert_eq!(
            (ring.dropped(), ring.pinned_overflow()),
            (4, 1),
            "the mix must exercise both losses"
        );
        assert_eq!(
            ring.total_recorded(),
            ring.len() as u64 + ring.dropped() + ring.pinned_overflow()
        );
    }

    #[test]
    fn chrome_trace_skips_ends_whose_begin_the_ring_dropped() {
        // Five slots hold the last five of these eight events: the ring
        // wrapped inside the syscall span, dropping its two begins but
        // keeping a whole nested span and both ends.
        let mut t = RingTracer::new(crate::RingConfig {
            capacity: 5,
            ..Default::default()
        });
        let inst = TraceEvent::Inst {
            func: 0,
            opcode: "add",
            cost: 1,
        };
        t.record(1, TraceEvent::OsEnter { op: "sva.syscall" });
        t.record(2, TraceEvent::SyscallEnter { num: 4 });
        t.record(3, inst.clone());
        t.record(4, inst);
        t.record(5, TraceEvent::OsEnter { op: "sva.iret" });
        t.record(
            6,
            TraceEvent::OsExit {
                op: "sva.iret",
                cost: 1,
            },
        );
        t.record(7, TraceEvent::SyscallExit { num: 4, cost: 5 });
        t.record(
            8,
            TraceEvent::OsExit {
                op: "sva.syscall",
                cost: 7,
            },
        );
        assert_eq!(t.ring().dropped(), 3);
        let chrome = to_chrome_trace(&t);
        // Walking the spans never closes more than it opened.
        let mut open = 0i64;
        for line in chrome.lines() {
            if line.contains("\"ph\":\"B\"") {
                open += 1;
            } else if line.contains("\"ph\":\"E\"") {
                open -= 1;
                assert!(open >= 0, "stray span end: {line}");
            }
        }
        assert_eq!(open, 0);
        assert_eq!(chrome.matches("\"ph\":\"E\"").count(), 1);
        assert!(chrome.contains("\"name\":\"sva.iret\""));
        assert!(!chrome.contains("syscall 4"));
    }

    #[test]
    fn prometheus_export_has_typed_counters_and_cumulative_histograms() {
        let mut t = traced();
        // Fold in a couple of counters with dotted names (the CheckStats
        // fold-in shape) and a histogram with values in distinct buckets.
        t.metrics_mut()
            .set_counter("check.lookup.singleton_hits", 3);
        t.metrics_mut().record("lat", 0);
        t.metrics_mut().record("lat", 5);
        t.metrics_mut().record("lat", 5);
        t.metrics_mut().record("lat", 100);
        let prom = to_prometheus(&t);
        assert!(prom.contains("# TYPE sva_check_lookup_singleton_hits counter"));
        assert!(prom.contains("sva_check_lookup_singleton_hits 3"));
        // The syscall histogram recorded one 37-cycle latency.
        assert!(prom.contains("# TYPE sva_syscall_cycles histogram"));
        // `lat`: 0 → le=1, two 5s → cumulative 3 at le=8, 100 → 4 at le=128.
        assert!(prom.contains("sva_lat_bucket{le=\"1\"} 1"), "{prom}");
        assert!(prom.contains("sva_lat_bucket{le=\"8\"} 3"), "{prom}");
        assert!(prom.contains("sva_lat_bucket{le=\"128\"} 4"), "{prom}");
        assert!(prom.contains("sva_lat_bucket{le=\"+Inf\"} 4"));
        assert!(prom.contains("sva_lat_sum 110"));
        assert!(prom.contains("sva_lat_count 4"));
    }

    #[test]
    fn report_names_functions_pools_and_coverage() {
        let t = traced();
        let report = top_report(&t, 41, 10);
        assert!(report.contains("attributed 41 (100.00%)"), "{report}");
        assert!(report.contains("boot"));
        assert!(report.contains("MP_kernel"));
        assert!(report.contains("pchk.lscheck"));
        assert!(report.contains("syscall 4"));
        assert!(report.contains("violations 1"));
    }
}
