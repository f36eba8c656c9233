//! `HostClock`: a tracer that stamps the machine's syscall, SVA-OS and
//! interrupt events with host time. It asks only for those three event
//! classes, so the per-instruction and per-check instrumentation stays
//! compiled out exactly as for the untraced machine. Spans stay in memory
//! and are written out once, when the benchmark ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use sva_trace::{EventClass, TraceEvent, Tracer};

/// Spans kept for the Chrome trace file; the timing statistics keep
/// counting past it, and the file states how many spans it dropped.
const MAX_SPANS: usize = 200_000;

#[derive(Clone, Copy)]
enum SpanName {
    Syscall(i64),
    Os(&'static str),
    Irq(i64),
}

#[derive(Clone, Copy)]
struct Span {
    name: SpanName,
    start_ns: u64,
    dur_ns: u64,
}

pub struct HostClock {
    origin: Instant,
    /// Open syscalls by their virtual-cycle entry stamp: an exit at cycle
    /// `ts` with cost `c` closes the trap that entered at `ts - c`, even
    /// when other processes trapped in between.
    open: HashMap<u64, (i64, u64, u64)>,
    /// Open SVA-OS operations (they nest strictly).
    os_stack: Vec<(&'static str, u64)>,
    /// Host ns spent in completed SVA-OS operations so far.
    os_cum_ns: u64,
    /// Host ns of each completed trap, entry to `iret`.
    pub trap_ns: Vec<f64>,
    trap_total_ns: u64,
    /// Host ns of SVA-OS operations that completed inside a trap window.
    os_in_trap_ns: u64,
    pub os_ops: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl Default for HostClock {
    fn default() -> Self {
        HostClock {
            origin: Instant::now(),
            open: HashMap::new(),
            os_stack: Vec::new(),
            os_cum_ns: 0,
            trap_ns: Vec::new(),
            trap_total_ns: 0,
            os_in_trap_ns: 0,
            os_ops: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }
}

impl HostClock {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn keep(&mut self, name: SpanName, start_ns: u64, dur_ns: u64) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                name,
                start_ns,
                dur_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Mean host ns of one SVA-OS operation.
    pub fn os_op_ns_mean(&self) -> f64 {
        if self.os_ops == 0 {
            0.0
        } else {
            self.os_cum_ns as f64 / self.os_ops as f64
        }
    }

    /// Share of trap time not covered by SVA-OS operations inside it: the
    /// handler's own kernel code, checks and dispatch.
    pub fn trap_self_share(&self) -> f64 {
        if self.trap_total_ns == 0 {
            0.0
        } else {
            1.0 - self.os_in_trap_ns as f64 / self.trap_total_ns as f64
        }
    }

    /// Adds another clock's statistics (one clock per traced machine).
    pub fn absorb(&mut self, o: HostClock) {
        let shift = o.origin.saturating_duration_since(self.origin).as_nanos() as u64;
        self.os_cum_ns += o.os_cum_ns;
        self.trap_ns.extend(o.trap_ns);
        self.trap_total_ns += o.trap_total_ns;
        self.os_in_trap_ns += o.os_in_trap_ns;
        self.os_ops += o.os_ops;
        self.dropped += o.dropped;
        for s in o.spans {
            self.keep(s.name, s.start_ns + shift, s.dur_ns);
        }
    }

    /// Writes the spans as a Chrome `trace_event` file.
    pub fn write_chrome(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (name, cat) = match s.name {
                SpanName::Syscall(n) => (format!("syscall {n}"), "syscall"),
                SpanName::Os(op) => (op.to_string(), "sva-os"),
                SpanName::Irq(v) => (format!("irq {v}"), "irq"),
            };
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{}}}",
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            );
        }
        let _ = write!(
            out,
            "],\"otherData\":{{\"workload\":\"{workload}\",\"spans\":{},\"dropped\":{}}}}}",
            self.spans.len(),
            self.dropped
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

impl Tracer for HostClock {
    const ENABLED: bool = true;
    const WANTED: u16 = EventClass::Syscall.bit() | EventClass::Os.bit() | EventClass::Irq.bit();

    fn record(&mut self, ts: u64, event: TraceEvent) {
        let now = self.now();
        match event {
            TraceEvent::SyscallEnter { num } => {
                self.open.insert(ts, (num, now, self.os_cum_ns));
            }
            TraceEvent::SyscallExit { cost, .. } => {
                if let Some((num, start, os_at_entry)) = self.open.remove(&(ts - cost)) {
                    let dur = now - start;
                    self.trap_ns.push(dur as f64);
                    self.trap_total_ns += dur;
                    self.os_in_trap_ns += self.os_cum_ns - os_at_entry;
                    self.keep(SpanName::Syscall(num), start, dur);
                }
            }
            TraceEvent::OsEnter { op } => self.os_stack.push((op, now)),
            TraceEvent::OsExit { .. } => {
                if let Some((op, start)) = self.os_stack.pop() {
                    let dur = now - start;
                    self.os_ops += 1;
                    self.os_cum_ns += dur;
                    self.keep(SpanName::Os(op), start, dur);
                }
            }
            TraceEvent::IrqDeliver { vector, .. } => self.keep(SpanName::Irq(vector), now, 0),
            _ => {}
        }
    }

    /// A restore replaces the whole machine: whatever was open belongs to
    /// the discarded state, and its virtual-cycle stamps may recur.
    fn on_restore(&mut self, _cycles: u64) {
        self.open.clear();
        self.os_stack.clear();
    }
}
